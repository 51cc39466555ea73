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
	r := uint(i) % basesPerWord
	o0, o1, o2, o3 = count4(b.word, loPairs&(1<<(2*r)-1), int(r))
	o0 += int(b.cnt[0])
	o1 += int(b.cnt[1])
	o2 += int(b.cnt[2])
	o3 += int(b.cnt[3])
	if x.primary >= int(w)*basesPerWord && x.primary < i {
		o0-- // sentinel is stored as symbol 0
	}
	return
}

// count4 returns the occurrences of each base among the n pairs of
// word selected by the low-bit pair mask m.
func count4(word, m uint64, n int) (c0, c1, c2, c3 int) {
	lo := word & m
	hi := (word >> 1) & m
	c3 = bits.OnesCount64(hi & lo)
	c2 = bits.OnesCount64(hi &^ lo)
	c1 = bits.OnesCount64(lo &^ hi)
	c0 = n - c1 - c2 - c3
	return
}

// extendFast is the fused FMD-index extension of BWA's bwt_extend: the
// four-base ranks at main.Lo and main.Hi, the sentinel correction and
// the prefix sums run inline on unboxed ints. main is the interval
// being LF-mapped with base a (P's for a left extension, revcomp(P)'s
// for a right one, which passes the complement base); other is its
// reverse-complement partner. Within other, revcomp(aP) = revcomp(P)·
// comp(a) sorts after the occurrences preceded by the start of U and
// after every comp(b) < comp(a), i.e. every b > a: complement order.
// When both bounds fall in one 32-base word, the counts of
// bwt[Lo:Hi) come from masked popcounts of the word already loaded
// for Lo, and the second block load is skipped. The caller charges
// the two modeled OccAccesses.
func (x *Index) extendFast(main, other Interval, a byte) (Interval, Interval) {
	lo, hi := uint(main.Lo), uint(main.Hi)
	w := lo / basesPerWord
	b := &x.blocks[w]
	below := uint64(1)<<(2*(lo%basesPerWord)) - 1 // pairs of bwt[w*32 : Lo)
	l0, l1, l2, l3 := count4(b.word, loPairs&below, int(lo%basesPerWord))
	l0 += int(b.cnt[0])
	l1 += int(b.cnt[1])
	l2 += int(b.cnt[2])
	l3 += int(b.cnt[3])
	if x.primary >= int(w)*basesPerWord && x.primary < main.Lo {
		l0-- // sentinel is stored as symbol 0
	}
	var s0, s1, s2, s3 int
	if hi/basesPerWord == w {
		// One-block rank: count bwt[Lo:Hi) in the same word.
		m := loPairs & (uint64(1)<<(2*(hi%basesPerWord)) - 1) &^ below
		s0, s1, s2, s3 = count4(b.word, m, main.Hi-main.Lo)
		if x.primary >= main.Lo && x.primary < main.Hi {
			s0--
		}
	} else {
		h0, h1, h2, h3 := x.occ4Fast(main.Hi)
		s0, s1, s2, s3 = h0-l0, h1-l1, h2-l2, h3-l3
	}
	// Occurrences preceded by the start of U (sentinel in the BWT) sort
	// first in other.
	olo := other.Lo + main.Hi - main.Lo - (s0 + s1 + s2 + s3)
	switch a {
	case 0:
		olo += s1 + s2 + s3
		return Interval{x.c[0] + l0, x.c[0] + l0 + s0}, Interval{olo, olo + s0}
	case 1:
		olo += s2 + s3
		return Interval{x.c[1] + l1, x.c[1] + l1 + s1}, Interval{olo, olo + s1}
	case 2:
		olo += s3
		return Interval{x.c[2] + l2, x.c[2] + l2 + s2}, Interval{olo, olo + s2}
	default:
		return Interval{x.c[3] + l3, x.c[3] + l3 + s3}, Interval{olo, olo + s3}
	}
}

// Locate returns the text position of the suffix at SA row i by
// LF-walking to the nearest software-sampled row; one block load per
// step serves both the BWT symbol and its rank. Each step lowers the
// SA value by one, and the walk never crosses the sentinel: row
// primary holds SA value 0, which is sampled. Stats are charged for
// the modeled walk to the nearest multiple of saSampleRate: v mod
// saSampleRate LF steps, each one OccAccess, and one SALookup for the
// sampled-SA read.
func (x *Index) Locate(i int, st *Stats) int {
	steps := 0
	for x.saMask[uint(i)/64]&(1<<(uint(i)%64)) == 0 {
		w := uint(i) / basesPerWord
		r := uint(i) % basesPerWord
		b := &x.blocks[w]
		a := byte(b.word>>(2*r)) & 3
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
	v := int(x.saVals[x.sampleRank(i)]) + steps
	if st != nil {
		modeled := v % saSampleRate
		st.LFSteps += modeled
		st.OccAccesses += modeled
		st.SALookups++
	}
	return v
}
