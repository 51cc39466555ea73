// Package fmindex implements the seeding substrate of NvWa's SUs: a
// suffix array, the Burrows-Wheeler transform, an FM-index with
// checkpointed occurrence tables (the paper instantiates its SUs with
// the bit-vectorised LFMapBit FM-index search of [65], occ interval
// 128), the FMD-index (one BWT of T·revcomp(T), extended on either
// side), and BWA-MEM-style SMEM seeding.
package fmindex

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxTextLen is the longest reference NewBi indexes. The suffix array
// of T·revcomp(T) and its sentinel has 2|T|+1 int32 entries, so |T| is
// the largest value with 2|T|+1 <= math.MaxInt32.
const MaxTextLen = (math.MaxInt32 - 1) / 2

// BuildSuffixArray returns the suffix array of t terminated by a
// virtual sentinel that sorts before every base. The result has
// len(t)+1 entries; entry 0 is always len(t) (the sentinel suffix).
// t holds 2-bit codes, and len(t)+1 must fit in an int32 (NewBi's text
// is 2|T| bases, hence MaxTextLen).
//
// The construction is SA-IS (Nong, Zhang & Chan, "Two Efficient
// Algorithms for Linear Time Suffix Array Construction", 2009): linear
// time, induced sorting over the alphabet {sentinel, 0, 1, 2, 3}. The
// reduced string of each recursion level and its suffix array live in
// the result's free slots. Beyond the result, the builder allocates one
// S/L type bitset per level (n/64 words at the top, halving or better
// per level) and the top level's two four-entry bucket arrays: deeper
// levels keep their buckets in the result's free slots when they fit.
func BuildSuffixArray(t []byte) []int32 {
	if len(t) >= math.MaxInt32 {
		panic(fmt.Sprintf("fmindex: text of %d bases exceeds the int32 suffix array", len(t)))
	}
	sa := make([]int32, len(t)+1)
	sais(t, sa, 4, nil)
	return sa
}

// typeBits marks S-type suffixes: bit i is set when suffix i sorts
// before suffix i+1. The sentinel is S-type and its predecessor L-type.
type typeBits []uint64

func (b typeBits) s(i int32) bool { return b[i>>6]>>(i&63)&1 != 0 }

// lms reports whether suffix i is leftmost-S: S-type after an L-type.
func (b typeBits) lms(i int32) bool { return i > 0 && b.s(i) && !b.s(i-1) }

// lmsWord returns the LMS bits of word w, so that a scan in text order
// visits only the LMS positions. Position 0 is never LMS.
func (b typeBits) lmsWord(w int) uint64 {
	if w == 0 {
		return b[0] &^ (b[0]<<1 | 1)
	}
	return b[w] &^ (b[w]<<1 | b[w-1]>>63)
}

// sais writes the suffix array of text plus a virtual sentinel into sa,
// which has len(text)+1 entries. The symbols of text lie in [0, k).
// free is scratch disjoint from text and sa. The bucket arrays take its
// head when it is long enough, and the recursion gets the longer of its
// rest and the slots this level leaves free.
func sais[T byte | int32](text []T, sa []int32, k int, free []int32) {
	m := int32(len(text))
	sa[0] = m
	if m == 0 {
		return
	}
	types := make(typeBits, m/64+1)
	types[m>>6] |= 1 << (m & 63)
	for i, next := m-2, false; i >= 0; i-- {
		next = text[i] < text[i+1] || text[i] == text[i+1] && next
		if next {
			types[i>>6] |= 1 << (i & 63)
		}
	}

	var bkt []int32
	if len(free) >= 2*k {
		bkt, free = free[:2*k], free[2*k:]
	} else {
		bkt = make([]int32, 2*k)
	}
	cnt, ptr := bkt[:k], bkt[k:]
	clear(cnt)
	for _, c := range text {
		cnt[c]++
	}

	// Sort the LMS substrings: seed each bucket's tail with its LMS
	// suffixes in any order, then induce. The sentinel's LMS bit (m) is
	// skipped here and below: slot 0 holds it.
	empty(sa[1:])
	bucketTails(cnt, ptr)
	for w := range types {
		for word := types.lmsWord(w); word != 0; word &= word - 1 {
			if i := int32(w*64 + bits.TrailingZeros64(word)); i < m {
				c := text[i]
				ptr[c]--
				sa[ptr[c]] = i
			}
		}
	}
	induce(text, sa, types, cnt, ptr)

	// Gather the sorted LMS suffixes (the sentinel first) into sa[:n1]
	// and name their substrings in order, equal substrings alike. A
	// name goes to sa[n1+p/2]: LMS positions are at least two apart.
	n1 := int32(0)
	for _, p := range sa {
		if types.lms(p) {
			sa[n1] = p
			n1++
		}
	}
	names := sa[n1:]
	empty(names)
	name, prev := int32(-1), int32(-1)
	for _, p := range sa[1:n1] {
		if prev < 0 || !equalLMS(text, types, prev, p) {
			name++
		}
		prev = p
		names[p/2] = name
	}

	// The names in text order form the reduced string s1, packed at the
	// top of sa; the sentinel's LMS suffix is s1's virtual sentinel.
	top := int32(len(sa))
	for i := int32(len(sa)) - 1; i >= n1; i-- {
		if sa[i] >= 0 {
			top--
			sa[top] = sa[i]
		}
	}
	s1, sa1 := sa[top:], sa[:n1]
	if name+1 < n1-1 {
		if len(free) < int(top-n1) {
			free = sa[n1:top]
		}
		sais(s1, sa1, int(name+1), free)
	} else {
		// Every name is distinct: s1's suffix array is its inverse.
		sa1[0] = n1 - 1
		for i, c := range s1 {
			sa1[c+1] = int32(i)
		}
	}

	// Map the sorted reduced suffixes back to LMS positions, seed the
	// bucket tails with them in that order, and induce the full array.
	j := 0
	for w := range types {
		for word := types.lmsWord(w); word != 0; word &= word - 1 {
			if i := int32(w*64 + bits.TrailingZeros64(word)); i < m {
				s1[j] = i
				j++
			}
		}
	}
	for i := int32(1); i < n1; i++ {
		sa[i] = s1[sa[i]]
	}
	sa[0] = m
	empty(sa[n1:])
	bucketTails(cnt, ptr)
	for i := n1 - 1; i > 0; i-- {
		p := sa[i]
		sa[i] = -1
		c := text[p]
		ptr[c]--
		sa[ptr[c]] = p
	}
	induce(text, sa, types, cnt, ptr)
}

// empty marks every slot of s as holding no suffix.
func empty(s []int32) {
	for i := range s {
		s[i] = -1
	}
}

// bucketHeads points ptr[c] at the first slot of bucket c; slot 0 holds
// the sentinel.
func bucketHeads(cnt, ptr []int32) {
	sum := int32(1)
	for c, n := range cnt {
		ptr[c] = sum
		sum += n
	}
}

// bucketTails points ptr[c] just past the last slot of bucket c.
func bucketTails(cnt, ptr []int32) {
	sum := int32(1)
	for c, n := range cnt {
		sum += n
		ptr[c] = sum
	}
}

// induce sorts the L-type suffixes from the seeded S-type ones in a
// left-to-right scan, then the S-type suffixes from the L-type ones in
// a right-to-left scan. Empty slots hold -1.
func induce[T byte | int32](text []T, sa []int32, types typeBits, cnt, ptr []int32) {
	bucketHeads(cnt, ptr)
	for i := range sa {
		if j := sa[i] - 1; j >= 0 && !types.s(j) {
			c := text[j]
			sa[ptr[c]] = j
			ptr[c]++
		}
	}
	bucketTails(cnt, ptr)
	for i := len(sa) - 1; i > 0; i-- {
		if j := sa[i] - 1; j >= 0 && types.s(j) {
			c := text[j]
			ptr[c]--
			sa[ptr[c]] = j
		}
	}
}

// equalLMS reports whether the LMS substrings at p and q (each running
// to the next LMS position, inclusive) have equal symbols and types.
// The sentinel ends the last one and is unique, so reaching it differs.
func equalLMS[T byte | int32](text []T, types typeBits, p, q int32) bool {
	m := int32(len(text))
	for d := int32(0); ; d++ {
		i, j := p+d, q+d
		if i == m || j == m || text[i] != text[j] || types.s(i) != types.s(j) {
			return false
		}
		if d > 0 && types.lms(i) {
			return true // types match up to here, so j is LMS too
		}
	}
}
