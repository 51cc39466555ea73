package fmindex

// BiIndex is a bidirectional FM-index: one index over the text and one
// over its reverse, kept in lockstep so a pattern interval can be
// extended by a base on either side. This is the textbook equivalent of
// the FMD-index BWA-MEM uses for SMEM seeding.
type BiIndex struct {
	fwd *Index // index of U
	rev *Index // index of reverse(U)
}

// NewBi builds a bidirectional index of t.
func NewBi(t []byte) *BiIndex {
	r := make([]byte, len(t))
	for i, b := range t {
		r[len(t)-1-i] = b
	}
	return &BiIndex{fwd: New(t), rev: New(r)}
}

// Fwd exposes the forward index (used for locating occurrences).
func (b *BiIndex) Fwd() *Index { return b.fwd }

// BiInterval pairs the SA interval of pattern P in the forward index
// with the SA interval of reverse(P) in the reverse index. The two
// always have the same size.
type BiInterval struct {
	Fwd, Rev Interval
}

// Size returns the number of occurrences of the pattern.
func (iv BiInterval) Size() int { return iv.Fwd.Size() }

// Empty reports whether the pattern does not occur.
func (iv BiInterval) Empty() bool { return iv.Fwd.Empty() }

// Single returns the bi-interval of the single-base pattern a. It is
// served from the C table and charges no occurrence-table access.
func (b *BiIndex) Single(a byte) BiInterval {
	return BiInterval{
		Fwd: Interval{b.fwd.c[a], b.fwd.c[a+1]},
		Rev: Interval{b.rev.c[a], b.rev.c[a+1]},
	}
}

// ExtendLeft turns the interval of P into the interval of aP. The
// hardware reads one 128-base checkpointed block per interval bound
// (mirroring bwt_2occ4 / the LFMapBit block fetch), so two table
// accesses are charged.
func (b *BiIndex) ExtendLeft(iv BiInterval, a byte, st *Stats) BiInterval {
	if st != nil {
		st.OccAccesses += 2
	}
	var out BiInterval
	out.Fwd, out.Rev = extendFast(b.fwd, iv.Fwd, iv.Rev, a)
	return out
}

// ExtendRight turns the interval of P into the interval of Pa,
// charging the same two table accesses as ExtendLeft.
func (b *BiIndex) ExtendRight(iv BiInterval, a byte, st *Stats) BiInterval {
	if st != nil {
		st.OccAccesses += 2
	}
	var out BiInterval
	out.Rev, out.Fwd = extendFast(b.rev, iv.Rev, iv.Fwd, a)
	return out
}
