package fmindex

// Seeder performs end-to-end seeding of a read against a reference:
// its FMD-index over T·revcomp(T) finds SMEMs on both strands
// simultaneously, as BWA-MEM's does, and it converts located
// occurrences back to forward-strand reference coordinates.
type Seeder struct {
	bi *BiIndex
	n  int // reference length (T only)
}

// NewSeeder builds the FMD-index of the 2-bit coded reference t for
// seeding.
func NewSeeder(t []byte) *Seeder {
	return &Seeder{bi: NewBi(t), n: len(t)}
}

// Bi exposes the underlying FMD-index.
func (s *Seeder) Bi() *BiIndex { return s.bi }

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
