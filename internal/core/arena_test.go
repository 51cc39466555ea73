package core

import (
	"math/rand"
	"testing"
)

func arenaHit(i int) Hit {
	return Hit{
		ReadIdx:   i,
		HitIdx:    i % 7,
		Rev:       i%3 == 0,
		ReadBeg:   i % 11,
		ReadEnd:   i%11 + 19 + i%23,
		RefPos:    i * 131,
		ReadLen:   150,
		SeedScore: 19 + i%23,
	}
}

// TestHitArenaNeverDoubleIssues drives a randomized alloc/free workload
// and checks the free-list never hands out an ID that is already live,
// that At returns the interned record verbatim, and that SchedLen
// mirrors the record.
func TestHitArenaNeverDoubleIssues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a HitArena
	liveSet := map[HitID]Hit{}
	liveIDs := []HitID{}
	for step := 0; step < 20000; step++ {
		if len(liveIDs) == 0 || rng.Intn(5) != 0 {
			h := arenaHit(step)
			id := a.Alloc(h)
			if _, clash := liveSet[id]; clash {
				t.Fatalf("step %d: arena double-issued live ID %d", step, id)
			}
			liveSet[id] = h
			liveIDs = append(liveIDs, id)
		} else {
			k := rng.Intn(len(liveIDs))
			id := liveIDs[k]
			want := liveSet[id]
			if got := a.At(id); got != want {
				t.Fatalf("step %d: At(%d) = %+v, want %+v", step, id, got, want)
			}
			if got := a.SchedLen(id); got != want.SchedLen() {
				t.Fatalf("step %d: SchedLen(%d) = %d, want %d", step, id, got, want.SchedLen())
			}
			a.Free(id)
			delete(liveSet, id)
			liveIDs[k] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
		if a.Live() != len(liveSet) {
			t.Fatalf("step %d: Live() = %d, want %d", step, a.Live(), len(liveSet))
		}
	}
	for _, id := range liveIDs {
		a.Free(id)
	}
	if err := a.CheckDrained(); err != nil {
		t.Fatalf("drained arena: %v", err)
	}
}

// TestHitArenaWarmEqualsFresh interns the same hit stream into a fresh
// arena and into one that has been through a full alloc/free cycle
// (recycled IDs, grown slab): every lookup must agree. ID values may
// differ between the two; the stored records may not.
func TestHitArenaWarmEqualsFresh(t *testing.T) {
	var warm HitArena
	scratch := make([]HitID, 0, 512)
	for i := 0; i < 512; i++ {
		scratch = append(scratch, warm.Alloc(arenaHit(i+9000)))
	}
	for _, id := range scratch {
		warm.Free(id)
	}

	var fresh HitArena
	for i := 0; i < 300; i++ {
		h := arenaHit(i)
		wid, fid := warm.Alloc(h), fresh.Alloc(h)
		if warm.At(wid) != fresh.At(fid) {
			t.Fatalf("hit %d: warm arena stored %+v, fresh %+v", i, warm.At(wid), fresh.At(fid))
		}
		if warm.SchedLen(wid) != fresh.SchedLen(fid) {
			t.Fatalf("hit %d: warm SchedLen %d, fresh %d", i, warm.SchedLen(wid), fresh.SchedLen(fid))
		}
	}
	if len(warm.slab) != 512 {
		t.Fatalf("warm arena grew to %d, want to stay at its 512 peak", len(warm.slab))
	}
}

// TestHitArenaSteadyStateZeroAlloc pins the no-allocation contract: a
// warm arena cycling through alloc/free must never touch the heap.
func TestHitArenaSteadyStateZeroAlloc(t *testing.T) {
	var a HitArena
	ids := make([]HitID, 64)
	round := func() {
		for i := range ids {
			ids[i] = a.Alloc(arenaHit(i))
		}
		for _, id := range ids {
			a.Free(id)
		}
	}
	round() // grow slab and free-list to peak
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("warm arena allocates %v per round, want 0", allocs)
	}
}
