package fmindex

import "math/bits"

// Interleaved FM-index layout: each BWT word's occurrence checkpoint
// lives in the same 24-byte block as the word it summarizes, so one
// rank query touches one cache line instead of two arrays a megabyte
// apart (a split checkpoint/BWT layout). This is the data-locality
// discipline of GPU/FPGA BWT kernels (SaLoBa's coalesced occ blocks,
// BWA-MEM2's interleaved cp_occ). It is the index's only rank path.
// The modeled hardware is unchanged: Stats still charges one 128-base
// block read per Occ evaluation, whatever the software layout
// underneath. TestOccRankEquivalence pins every rank query
// against a naive count over the decoded BWT.

const loPairs = uint64(0x5555555555555555)

// occBlock interleaves one BWT word with the occurrence checkpoint
// covering bwt[0 : w*32). 24 bytes: checkpoint and word share a line.
type occBlock struct {
	cnt  [4]int32
	word uint64
}

// occRaw returns the number of occurrences of base a in bwt[0:i),
// clamping i to [0, size]: one block load serves the checkpoint and
// the partial word.
func (x *Index) occRaw(a byte, i int) int {
	if i <= 0 {
		return 0
	}
	if i > x.size() {
		i = x.size()
	}
	w := uint(i) / basesPerWord
	b := &x.blocks[w]
	count := int(b.cnt[a])
	if r := uint(i) % basesPerWord; r != 0 {
		word := b.word ^ ^(uint64(a&3) * loPairs)
		word = word & (word >> 1) & loPairs & (1<<(2*r) - 1)
		count += bits.OnesCount64(word)
	}
	if a == 0 && x.primary >= int(w)*basesPerWord && x.primary < i {
		count-- // sentinel is stored as symbol 0
	}
	return count
}

// occ4Fast returns the four occurrence counts in bwt[0:i) from one
// interleaved block. i must be in [0, size].
func (x *Index) occ4Fast(i int) (o0, o1, o2, o3 int) {
	w := uint(i) / basesPerWord
	b := &x.blocks[w]
	o0, o1, o2, o3 = int(b.cnt[0]), int(b.cnt[1]), int(b.cnt[2]), int(b.cnt[3])
	if r := uint(i) % basesPerWord; r != 0 {
		word := b.word
		m := loPairs & (1<<(2*r) - 1)
		lo := word & m
		hi := (word >> 1) & m
		c3 := bits.OnesCount64(hi & lo)
		c2 := bits.OnesCount64(hi &^ lo)
		c1 := bits.OnesCount64(lo &^ hi)
		o0 += int(r) - c1 - c2 - c3
		o1 += c1
		o2 += c2
		o3 += c3
	}
	if x.primary >= int(w)*basesPerWord && x.primary < i {
		o0-- // sentinel is stored as symbol 0
	}
	return
}

// extendFast is the fused bidirectional extension over the interleaved
// layout: both Occ4 evaluations, the sentinel correction, and the
// prefix sums run inline on unboxed ints. x is the index being ranked
// (fwd for a left extension, rev for a right one); the caller swaps
// the two halves of iv accordingly and charges the two OccAccesses.
func extendFast(x *Index, main, other Interval, a byte) (Interval, Interval) {
	l0, l1, l2, l3 := x.occ4Fast(main.Lo)
	h0, h1, h2, h3 := x.occ4Fast(main.Hi)
	s0, s1, s2, s3 := h0-l0, h1-l1, h2-l2, h3-l3
	// Occurrences preceded by the start of text (sentinel in the BWT):
	// in the other index these sort before every extension.
	lo := other.Lo + main.Hi - main.Lo - (s0 + s1 + s2 + s3)
	var outMain Interval
	var sz int
	switch a {
	case 0:
		outMain = Interval{x.c[0] + l0, x.c[0] + h0}
		sz = s0
	case 1:
		outMain = Interval{x.c[1] + l1, x.c[1] + h1}
		lo += s0
		sz = s1
	case 2:
		outMain = Interval{x.c[2] + l2, x.c[2] + h2}
		lo += s0 + s1
		sz = s2
	default:
		outMain = Interval{x.c[3] + l3, x.c[3] + h3}
		lo += s0 + s1 + s2
		sz = s3
	}
	return outMain, Interval{lo, lo + sz}
}

// Locate returns the text position of the suffix at SA row i by
// LF-walking to the nearest sampled row. One block load per step
// serves both the BWT symbol and its rank; each non-sentinel step
// charges one LFStep and one OccAccess (the sentinel row maps to row 0
// free), and the sampled-SA read charges one SALookup.
func (x *Index) Locate(i int, st *Stats) int {
	steps := 0
	for x.saMask[uint(i)/64]&(1<<(uint(i)%64)) == 0 {
		if i == x.primary {
			i = 0
			steps++
			continue
		}
		w := uint(i) / basesPerWord
		r := uint(i) % basesPerWord
		b := &x.blocks[w]
		a := byte(b.word>>(2*r)) & 3
		if st != nil {
			st.LFSteps++
			st.OccAccesses++
		}
		count := int(b.cnt[a])
		if r != 0 {
			word := b.word ^ ^(uint64(a) * loPairs)
			word = word & (word >> 1) & loPairs & (1<<(2*r) - 1)
			count += bits.OnesCount64(word)
		}
		if a == 0 && x.primary >= int(w)*basesPerWord && x.primary < i {
			count--
		}
		i = x.c[a] + count
		steps++
	}
	if st != nil {
		st.SALookups++
	}
	return int(x.saVals[x.sampleRank(i)]) + steps
}
