package fmindex

// Seeder performs end-to-end seeding of a read against a reference:
// it indexes T·revcomp(T) so SMEMs are found on both strands
// simultaneously, exactly as BWA-MEM's FMD-index does, and converts
// located occurrences back to forward-strand reference coordinates.
type Seeder struct {
	bi *BiIndex
	n  int // reference length (T only)
}

// NewSeeder indexes the 2-bit coded reference t (and its reverse
// complement) for seeding.
func NewSeeder(t []byte) *Seeder {
	u := make([]byte, 2*len(t))
	copy(u, t)
	for i, b := range t {
		u[2*len(t)-1-i] = 3 - (b & 3)
	}
	bi := NewBi(u)
	// Attach the k-mer jump-start table at its adaptive default size;
	// the default k is always within BuildKmerLUT's validated bounds.
	if err := bi.BuildLUT(0); err != nil {
		panic("fmindex: default LUT build rejected: " + err.Error())
	}
	return &Seeder{bi: bi, n: len(t)}
}

// Bi exposes the underlying bidirectional index.
func (s *Seeder) Bi() *BiIndex { return s.bi }

// RefLen returns the reference length.
func (s *Seeder) RefLen() int { return s.n }

// Seed is one located seed occurrence: read[ReadBeg:ReadEnd) matches
// the reference at RefPos (forward-strand coordinates). Rev marks a
// reverse-complement-strand occurrence. Count is the total occurrence
// count of the SMEM this seed came from.
type Seed struct {
	ReadBeg, ReadEnd int
	RefPos           int
	Rev              bool
	Count            int
}

// Len returns the seed length.
func (s Seed) Len() int { return s.ReadEnd - s.ReadBeg }

// Seeds finds all seeds of r with length >= minLen using the full
// three-pass BWA-MEM strategy — SMEMs, re-seeding (split length
// 1.5 x minLen, split width 10), and the LAST-like repeat-seed pass
// (occurrence threshold maxMemIntv) — and locates up to maxOcc
// occurrences per match (0 = unlimited). Memory traffic is
// accumulated in st.
// Seeds is a thin wrapper over SeedsWS with a private workspace; hot
// paths (the SUs, the memo builder) thread a per-worker Workspace
// through SeedsWS instead so steady-state seeding allocates nothing.
func (s *Seeder) Seeds(r []byte, minLen, maxOcc, maxMemIntv int, st *Stats) []Seed {
	var ws Workspace
	return s.SeedsWS(&ws, r, minLen, maxOcc, maxMemIntv, st)
}
