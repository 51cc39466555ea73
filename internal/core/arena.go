package core

// HitID is a dense index into a HitArena slab. The Coordinator's hot
// path (buffer push, window snapshot, allocation-round sort, commit)
// moves these 4-byte IDs instead of 64-byte Hit records: the sort key
// lives in a struct-of-arrays side table, so a scheduling round never
// touches Hit memory at all, and the slab is a single GC-opaque
// allocation instead of a pointer graph the collector must scan.
type HitID int32

// HitArena is an index-based slab allocator for in-flight hits. IDs
// are recycled through a free-list; the slab only grows to the peak
// number of simultaneously live hits (bounded by the Coordinator's
// buffer depth), so a steady-state run performs no per-hit allocation.
//
// Invariants, pinned by TestHitArena* property tests:
//
//   - Alloc never returns an ID that is currently live (the free-list
//     never double-issues).
//   - At(id) returns exactly the Hit passed to the Alloc that issued
//     id, until Free(id).
//   - SchedLen(id) equals At(id).SchedLen() without touching the slab
//     record (it is captured into the side table at Alloc).
//
// The zero value is ready to use.
type HitArena struct {
	slab []Hit
	// schedLen is the struct-of-arrays mirror of the one field the
	// allocation round reads per hit. Sorting by SchedLen walks this
	// dense int32 array — 16 hits per cache line instead of 1.
	schedLen []int32
	free     []HitID
	live     int
}

// Reserve grows the arena's backing storage to hold at least n
// simultaneously live hits, in one allocation per array instead of the
// doubling churn n incremental Allocs would pay. Callers that know
// their peak liveness (the Coordinator: both buffer generations, plus
// slack for in-flight retries) reserve it up front; exceeding the
// reservation is safe and falls back to append growth.
func (a *HitArena) Reserve(n int) {
	if cap(a.slab) >= n {
		return
	}
	slab := make([]Hit, len(a.slab), n)
	copy(slab, a.slab)
	a.slab = slab
	schedLen := make([]int32, len(a.schedLen), n)
	copy(schedLen, a.schedLen)
	a.schedLen = schedLen
	free := make([]HitID, len(a.free), n)
	copy(free, a.free)
	a.free = free
}

// Alloc interns h and returns its ID.
func (a *HitArena) Alloc(h Hit) HitID {
	a.live++
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.slab[id] = h
		a.schedLen[id] = int32(h.SchedLen())
		return id
	}
	id := HitID(len(a.slab))
	a.slab = append(a.slab, h)
	a.schedLen = append(a.schedLen, int32(h.SchedLen()))
	return id
}

// At returns the hit stored under id.
func (a *HitArena) At(id HitID) Hit { return a.slab[id] }

// SchedLen returns the hit's scheduling length (the Coordinator's
// sort/classify key) from the dense side table.
func (a *HitArena) SchedLen(id HitID) int { return int(a.schedLen[id]) }

// Free recycles id. The caller must not use id afterwards; the slot
// will be reissued by a later Alloc.
func (a *HitArena) Free(id HitID) {
	a.live--
	a.free = append(a.free, id)
}

// Live returns the number of currently live IDs. A drained system
// must report 0 — every interned hit was either dispatched or
// dropped, and its generation released.
func (a *HitArena) Live() int { return a.live }
