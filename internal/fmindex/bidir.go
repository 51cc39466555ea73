package fmindex

// BiIndex is the FMD-index BWA-MEM seeds on: one FM-index over
// U = T·revcomp(T). U is its own reverse complement, so the SA interval
// of revcomp(P) tracks the interval of P in the same BWT, and one
// rank evaluation extends a pattern by a base on either side (BWA's
// bwt_extend).
type BiIndex struct {
	idx *Index // index of U
}

// NewBi builds the FMD-index of t·revcomp(t) from the 2-bit coded t,
// which is at most MaxTextLen bases long (BuildSuffixArray panics on
// a longer one).
func NewBi(t []byte) *BiIndex {
	return &BiIndex{idx: New(withRC(t))}
}

// withRC returns t·revcomp(t) for 2-bit coded t.
func withRC(t []byte) []byte {
	u := make([]byte, 2*len(t))
	copy(u, t)
	for i, b := range t {
		u[2*len(t)-1-i] = 3 - (b & 3)
	}
	return u
}

// Fwd exposes the index of U (used for locating occurrences).
func (b *BiIndex) Fwd() *Index { return b.idx }

// BiInterval pairs the SA interval of pattern P with the SA interval
// of revcomp(P), both in the index of U. The two always have the same
// size.
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
	c := &b.idx.c
	return BiInterval{
		Fwd: Interval{c[a], c[a+1]},
		Rev: Interval{c[3-a], c[4-a]},
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
	out.Fwd, out.Rev = b.idx.extendFast(iv.Fwd, iv.Rev, a)
	return out
}

// ExtendRight turns the interval of P into the interval of Pa, charging
// the same two table accesses as ExtendLeft: revcomp(Pa) is
// comp(a)·revcomp(P), a left extension of the swapped pair.
func (b *BiIndex) ExtendRight(iv BiInterval, a byte, st *Stats) BiInterval {
	if st != nil {
		st.OccAccesses += 2
	}
	var out BiInterval
	out.Rev, out.Fwd = b.idx.extendFast(iv.Rev, iv.Fwd, 3-a)
	return out
}
