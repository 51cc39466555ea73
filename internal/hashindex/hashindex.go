// Package hashindex implements the Hash-based seeding algorithm used by
// Darwin and Darwin-WGA (paper Sec. II-B): the reference is split into
// k-mers, and a two-level pointer-table / position-table structure maps
// each k-mer to its occurrence positions.
//
// The paper's footnote 3 models the DRAM cost of one lookup as 2+P
// accesses — two for the pointer table and P for the position table —
// which this package reproduces in its Stats so the hash-based SU
// variant can be simulated alongside the FM-index SUs.
package hashindex

import "fmt"

// MaxK is the largest supported k-mer size (4^k entries must fit an
// int32 table; the O(4^k) memory consumption is the algorithm's known
// drawback, quoted in the paper).
const MaxK = 15

// Stats counts the DRAM traffic of lookups.
type Stats struct {
	// PointerAccesses counts pointer-table reads (2 per lookup).
	PointerAccesses int
	// PositionAccesses counts position-table reads (P per lookup).
	PositionAccesses int
}

// Index is a k-mer position index over a 2-bit coded reference.
type Index struct {
	k   int
	ptr []int32 // ptr[h] .. ptr[h+1] delimit positions of k-mer h
	pos []int32
}

// New builds a k-mer index of t.
func New(t []byte, k int) (*Index, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("hashindex: k=%d out of range [1,%d]", k, MaxK)
	}
	if len(t) < k {
		return nil, fmt.Errorf("hashindex: text length %d shorter than k=%d", len(t), k)
	}
	n := len(t) - k + 1
	tableSize := 1 << uint(2*k)

	// Counting pass.
	counts := make([]int32, tableSize+1)
	h := 0
	mask := tableSize - 1
	for i := 0; i < len(t); i++ {
		h = ((h << 2) | int(t[i]&3)) & mask
		if i >= k-1 {
			counts[h+1]++
		}
	}
	// Prefix sums form the pointer table.
	for i := 1; i <= tableSize; i++ {
		counts[i] += counts[i-1]
	}
	idx := &Index{k: k, ptr: counts, pos: make([]int32, n)}
	// Fill pass.
	fill := make([]int32, tableSize)
	h = 0
	for i := 0; i < len(t); i++ {
		h = ((h << 2) | int(t[i]&3)) & mask
		if i >= k-1 {
			kmerPos := int32(i - k + 1)
			idx.pos[idx.ptr[h]+fill[h]] = kmerPos
			fill[h]++
		}
	}
	return idx, nil
}

// hashOf returns the 2k-bit hash of p[0:k].
func (x *Index) hashOf(p []byte) int {
	h := 0
	for i := 0; i < x.k; i++ {
		h = (h << 2) | int(p[i]&3)
	}
	return h
}

// Seed is one k-mer anchor of a read on the reference.
type Seed struct {
	ReadPos int
	RefPos  int
}

// Seeds anchors every stride-th k-mer of read r, skipping k-mers with
// more than maxOcc occurrences (repeat masking, as Darwin's seed table
// does). stride <= 0 means stride 1. Each k-mer costs exactly one
// pointer-table read pair plus one position-table access per returned
// position — the paper's 2+P DRAM model.
func (x *Index) Seeds(r []byte, stride, maxOcc int, st *Stats) []Seed {
	if stride <= 0 {
		stride = 1
	}
	var out []Seed
	for i := 0; i+x.k <= len(r); i += stride {
		h := x.hashOf(r[i:])
		if st != nil {
			st.PointerAccesses += 2
		}
		lo, hi := x.ptr[h], x.ptr[h+1]
		if maxOcc > 0 && int(hi-lo) > maxOcc {
			continue // masked repeat: positions never fetched
		}
		if st != nil {
			st.PositionAccesses += int(hi - lo)
		}
		for _, p := range x.pos[lo:hi] {
			out = append(out, Seed{ReadPos: i, RefPos: int(p)})
		}
	}
	return out
}
