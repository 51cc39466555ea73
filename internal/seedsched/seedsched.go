// Package seedsched implements NvWa's Seeding Scheduler (paper
// Sec. IV-B): the One-Cycle Read Allocator that assigns a fresh read
// to every idle seeding unit within a single cycle, its gate-level
// microarchitecture (Fig. 6: priority mask tables, an AND stage, and a
// PopCount tree), and the Read-in-Batch baseline strategy used by
// prior accelerators (GenAx, ERT).
package seedsched

import "math/bits"

// AllocateSpec is the algorithmic specification of the One-Cycle Read
// Allocator, the paper's Eq. (1)-(2) with g expressed as next — the
// index of the next unallocated read (next = g+1):
//
//	a_i    = next + #idle units before i   (if unit i is idle)
//	next' = next + #idle units
//
// busy[i] is s_i (true = busy). The returned alloc has one entry per
// unit: the allocated read index for idle units, -1 for busy units.
func AllocateSpec(busy []bool, next int) (alloc []int, newNext int) {
	alloc = make([]int, len(busy))
	idleBefore := 0
	for i, b := range busy {
		if b {
			alloc[i] = -1
			continue
		}
		alloc[i] = next + idleBefore
		idleBefore++
	}
	return alloc, next + idleBefore
}

// OneCycleAllocator is the gate-level model of Fig. 6. For each unit i
// it holds a priority mask with bits 0..i-1 set; an allocation cycle
// inverts the status vector, ANDs it with each mask, reduces through a
// PopCount tree, adds the read offset, and muxes the result onto idle
// units — five pipeline steps, one cycle at 1 GHz for up to 512 units.
type OneCycleAllocator struct {
	n     int
	words int
	masks [][]uint64 // masks[i] = bits 0..i-1 set
	next  int        // next unallocated read index (g+1 in the paper)
}

// NewOneCycleAllocator builds the allocator's mask table for n units.
func NewOneCycleAllocator(n int) *OneCycleAllocator {
	if n <= 0 {
		panic("seedsched: allocator needs at least one unit")
	}
	words := (n + 63) / 64
	a := &OneCycleAllocator{n: n, words: words, masks: make([][]uint64, n)}
	for i := 0; i < n; i++ {
		m := make([]uint64, words)
		for b := 0; b < i; b++ {
			m[b/64] |= 1 << uint(b%64)
		}
		a.masks[i] = m
	}
	return a
}

// TreeDepth returns the depth of the PopCount reduction tree, the
// critical path of the design: 6 for 64 units, 9 for 512 (paper
// Sec. IV-B).
func (a *OneCycleAllocator) TreeDepth() int {
	d := 0
	for 1<<uint(d) < a.n {
		d++
	}
	return d
}

// Allocate performs one allocation cycle through the hardware path.
// busy[i] is the unit_status vector. It returns the per-unit read
// index (-1 for busy units), advancing the internal read offset.
func (a *OneCycleAllocator) Allocate(busy []bool) []int {
	if len(busy) != a.n {
		panic("seedsched: status vector length mismatch")
	}
	// Step 1: invert unit_status into an idle bit-vector.
	idle := make([]uint64, a.words)
	for i, b := range busy {
		if !b {
			idle[i/64] |= 1 << uint(i%64)
		}
	}
	out := make([]int, a.n)
	for i := 0; i < a.n; i++ {
		if busy[i] {
			// Step 5: mux keeps the current assignment for busy units.
			out[i] = -1
			continue
		}
		// Step 2: AND the unit's priority mask with the idle vector.
		// Step 3: PopCount tree reduces the masked vector.
		count := 0
		for w := 0; w < a.words; w++ {
			count += bits.OnesCount64(idle[w] & a.masks[i][w])
		}
		// Step 4: add the global read offset.
		out[i] = a.next + count
	}
	// Advance the offset by the number of idle units (Eq. 2).
	total := 0
	for _, w := range idle {
		total += bits.OnesCount64(w)
	}
	a.next += total
	return out
}

// BatchAllocator is the Read-in-Batch baseline (paper Fig. 5(a)): a
// new batch of reads is issued only once every unit in the batch has
// finished, so early finishers idle until the slowest unit completes.
type BatchAllocator struct {
	n    int
	next int
}

// NewBatchAllocator builds a batch allocator for n units.
func NewBatchAllocator(n int) *BatchAllocator {
	if n <= 0 {
		panic("seedsched: batch allocator needs at least one unit")
	}
	return &BatchAllocator{n: n}
}

// Allocate issues a new batch only if every unit is idle; otherwise no
// unit receives a read (all -1).
func (b *BatchAllocator) Allocate(busy []bool) []int {
	out := make([]int, len(busy))
	for i := range out {
		out[i] = -1
	}
	for _, s := range busy {
		if s {
			return out
		}
	}
	for i := range out {
		out[i] = b.next + i
	}
	b.next += len(busy)
	return out
}
