package coordinator

import (
	"math/rand"
	"testing"

	"nvwa/internal/core"
)

func hit(id, hitLen int) core.Hit {
	// Build a hit whose SchedLen (the paper's hit_len, the read span of
	// the chain) is hitLen.
	return core.Hit{ReadIdx: id, ReadLen: 128, ReadBeg: 0, ReadEnd: hitLen}
}

func TestHitsBufferPushAndBlock(t *testing.T) {
	b := NewHitsBuffer(4, 0.75)
	for i := 0; i < 4; i++ {
		if !b.Push(hit(i, 10)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if b.Push(hit(9, 10)) {
		t.Error("push into full SB accepted — producer must block")
	}
	if b.SBLen() != 4 {
		t.Errorf("SBLen = %d", b.SBLen())
	}
}

func TestHitsBufferSwitchThreshold(t *testing.T) {
	b := NewHitsBuffer(8, 0.75)
	for i := 0; i < 5; i++ { // 5/8 = 62.5% < 75%
		b.Push(hit(i, 10))
	}
	if b.TrySwitch(false) {
		t.Error("TrySwitch succeeded below threshold")
	}
	b.Push(hit(5, 10)) // 6/8 = 75%
	if !b.TrySwitch(false) {
		t.Error("TrySwitch failed at threshold")
	}
	if b.SBLen() != 0 || b.PBRemaining() != 6 || b.Switches() != 1 {
		t.Errorf("after switch: sb=%d pb=%d switches=%d", b.SBLen(), b.PBRemaining(), b.Switches())
	}
}

func TestHitsBufferForceSwitchAndPBGuard(t *testing.T) {
	b := NewHitsBuffer(8, 0.75)
	if b.TrySwitch(true) {
		t.Error("force switch of empty SB succeeded")
	}
	b.Push(hit(0, 10))
	if !b.TrySwitch(true) {
		t.Error("force switch with nonempty SB failed")
	}
	// PB not drained: no switch even with force.
	b.Push(hit(1, 10))
	if b.TrySwitch(true) {
		t.Error("switch with undrained PB succeeded")
	}
}

// window dereferences the buffer's current allocation window.
func window(b *HitsBuffer, batch int) []core.Hit {
	var out []core.Hit
	for _, id := range b.WindowIDs(batch) {
		out = append(out, b.Arena().At(id))
	}
	return out
}

func TestHitsBufferWindowAndCommit(t *testing.T) {
	b := NewHitsBuffer(16, 0.5)
	for i := 0; i < 10; i++ {
		b.Push(hit(i, 10+i))
	}
	b.TrySwitch(false)
	w, ids := window(b, 4), b.WindowIDs(4)
	if len(w) != 4 || w[0].ReadIdx != 0 {
		t.Fatalf("window = %v", w)
	}
	// Allocate hits 1,3; hits 0,2 fail.
	b.CommitIDs([]core.HitID{ids[1], ids[3]}, []core.HitID{ids[0], ids[2]})
	if b.PBRemaining() != 8 {
		t.Errorf("PBRemaining = %d, want 8", b.PBRemaining())
	}
	// Next window must start with the failed hits (fragmentation fix).
	w2 := window(b, 4)
	if w2[0].ReadIdx != 0 || w2[1].ReadIdx != 2 {
		t.Errorf("failed hits not at the front of the next window: %v %v", w2[0].ReadIdx, w2[1].ReadIdx)
	}
	if w2[2].ReadIdx != 4 || w2[3].ReadIdx != 5 {
		t.Errorf("new hits missing from window: %v", w2)
	}
}

func TestHitsBufferConservation(t *testing.T) {
	// Random pushes, switches, and partial commits must never lose or
	// duplicate a hit.
	rng := rand.New(rand.NewSource(1))
	b := NewHitsBuffer(32, 0.75)
	pushed := map[int]int{}
	consumed := map[int]int{}
	next := 0
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			if b.Push(hit(next, rng.Intn(120))) {
				pushed[next]++
				next++
			}
		case 1:
			b.TrySwitch(rng.Intn(4) == 0)
		case 2:
			w := b.WindowIDs(1 + rng.Intn(8))
			if len(w) == 0 {
				continue
			}
			// Randomly allocate a prefix subset.
			var alloc, fail []core.HitID
			for _, id := range w {
				if rng.Intn(2) == 0 {
					alloc = append(alloc, id)
					consumed[b.Arena().At(id).ReadIdx]++
				} else {
					fail = append(fail, id)
				}
			}
			b.CommitIDs(alloc, fail)
		}
	}
	// Drain everything.
	for {
		if b.PBRemaining() == 0 && !b.TrySwitch(true) {
			break
		}
		w := b.WindowIDs(16)
		for _, id := range w {
			consumed[b.Arena().At(id).ReadIdx]++
		}
		b.CommitIDs(w, nil)
	}
	for id, n := range pushed {
		if consumed[id] != n {
			t.Fatalf("hit %d pushed %d times, consumed %d", id, n, consumed[id])
		}
	}
	if len(consumed) != len(pushed) {
		t.Fatalf("consumed %d distinct hits, pushed %d", len(consumed), len(pushed))
	}
}

func TestHitsBufferPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewHitsBuffer(0, 0.5) },
		func() { NewHitsBuffer(8, 0) },
		func() { NewHitsBuffer(8, 1.5) },
		func() {
			b := NewHitsBuffer(8, 0.5)
			b.Push(hit(0, 1))
			b.TrySwitch(true)
			w := b.WindowIDs(1)
			b.CommitIDs([]core.HitID{w[0], w[0]}, nil) // oversized commit
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func units(classes []core.EUClass) []IdleUnit {
	var out []IdleUnit
	id := 0
	for ci, c := range classes {
		for k := 0; k < c.Count; k++ {
			out = append(out, IdleUnit{ID: id, Class: ci, PEs: c.PEs})
			id++
		}
	}
	return out
}

var testClasses = []core.EUClass{
	{PEs: 16, Count: 2},
	{PEs: 32, Count: 2},
	{PEs: 64, Count: 2},
	{PEs: 128, Count: 2},
}

func TestAllocateGroupedPrefersOptimal(t *testing.T) {
	a := NewAllocator(testClasses, Grouped)
	window := []core.Hit{hit(0, 7), hit(1, 29), hit(2, 40), hit(3, 103)}
	assigned, un := a.Allocate(window, units(testClasses))
	if len(un) != 0 {
		t.Fatalf("unallocated: %v", un)
	}
	wantPEs := map[int]int{0: 16, 1: 32, 2: 64, 3: 128}
	for _, as := range assigned {
		if as.Unit.PEs != wantPEs[as.Hit.ReadIdx] {
			t.Errorf("hit %d (len %d) on %d PEs, want %d",
				as.Hit.ReadIdx, as.Hit.SchedLen(), as.Unit.PEs, wantPEs[as.Hit.ReadIdx])
		}
	}
	if st := a.Stats(); st.Optimal != 4 || st.NearOptimal != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllocateGroupedNearOptimalWithinGroup(t *testing.T) {
	a := NewAllocator(testClasses, Grouped)
	// All 16-PE units taken: three short hits; the third must land on a
	// 32-PE unit (same group), never on 64/128.
	idle := units(testClasses)
	window := []core.Hit{hit(0, 7), hit(1, 8), hit(2, 9)}
	assigned, un := a.Allocate(window, idle)
	if len(un) != 0 {
		t.Fatalf("unallocated: %v", un)
	}
	got32 := 0
	for _, as := range assigned {
		if as.Unit.PEs == 64 || as.Unit.PEs == 128 {
			t.Errorf("short hit crossed group boundary onto %d PEs", as.Unit.PEs)
		}
		if as.Unit.PEs == 32 {
			got32++
		}
	}
	if got32 != 1 {
		t.Errorf("%d hits on 32-PE units, want exactly 1", got32)
	}
}

func TestAllocateGroupedCrossGroupSupplement(t *testing.T) {
	a := NewAllocator(testClasses, Grouped)
	// Only large units idle: the home group is exhausted, so the
	// adjacent group supplements (paper Sec. IV-D) rather than leaving
	// the hit and the units both idle.
	idle := []IdleUnit{{ID: 6, Class: 3, PEs: 128}, {ID: 7, Class: 3, PEs: 128}}
	assigned, un := a.Allocate([]core.Hit{hit(0, 7)}, idle)
	if len(assigned) != 1 || len(un) != 0 {
		t.Error("exhausted home group should borrow from the adjacent group")
	}
	// But when the home group has an idle unit, it always wins.
	idle = []IdleUnit{{ID: 6, Class: 3, PEs: 128}, {ID: 2, Class: 1, PEs: 32}}
	assigned, _ = a.Allocate([]core.Hit{hit(1, 7)}, idle)
	if len(assigned) != 1 || assigned[0].Unit.PEs != 32 {
		t.Errorf("home group not preferred: %+v", assigned)
	}
}

func TestAllocateShared(t *testing.T) {
	a := NewAllocator(testClasses, Shared)
	idle := []IdleUnit{{ID: 6, Class: 3, PEs: 128}}
	assigned, un := a.Allocate([]core.Hit{hit(0, 7)}, idle)
	if len(assigned) != 1 || len(un) != 0 {
		t.Error("Shared strategy must use any idle unit")
	}
}

func TestAllocateExclusive(t *testing.T) {
	a := NewAllocator(testClasses, Exclusive)
	idle := []IdleUnit{{ID: 2, Class: 1, PEs: 32}}
	// Hit 0 (len 7) wants class 0, hit 1 (len 20) wants class 1; only a
	// class-1 unit is idle, so exactly hit 1 is served.
	assigned, un := a.Allocate([]core.Hit{hit(0, 7), hit(1, 20)}, idle)
	if len(assigned) != 1 || assigned[0].Hit.ReadIdx != 1 {
		t.Errorf("exclusive allocation wrong: %v", assigned)
	}
	if len(un) != 1 || un[0].ReadIdx != 0 {
		t.Errorf("unallocated wrong: %v", un)
	}
}

func TestAllocateExclusiveOnlyOptimal(t *testing.T) {
	a := NewAllocator(testClasses, Exclusive)
	idle := []IdleUnit{{ID: 2, Class: 1, PEs: 32}}
	assigned, un := a.Allocate([]core.Hit{hit(0, 7)}, idle)
	if len(assigned) != 0 || len(un) != 1 {
		t.Error("Exclusive must not use a non-optimal class")
	}
}

func TestAllocateFIFOIgnoresLength(t *testing.T) {
	a := NewAllocator(testClasses, FIFO)
	// FIFO takes units in ID order regardless of hit length.
	idle := units(testClasses)
	window := []core.Hit{hit(0, 103), hit(1, 7)}
	assigned, _ := a.Allocate(window, idle)
	if len(assigned) != 2 {
		t.Fatal("FIFO should allocate both")
	}
	if assigned[0].Hit.ReadIdx != 0 || assigned[0].Unit.ID != 0 {
		t.Errorf("FIFO order violated: %+v", assigned[0])
	}
}

func TestAllocateConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		a := NewAllocator(testClasses, strat)
		for trial := 0; trial < 50; trial++ {
			var window []core.Hit
			for i := 0; i < rng.Intn(12); i++ {
				window = append(window, hit(trial*100+i, rng.Intn(128)))
			}
			idle := units(testClasses)[:rng.Intn(9)]
			assigned, un := a.Allocate(window, idle)
			if len(assigned)+len(un) != len(window) {
				t.Fatalf("strategy %v: %d+%d != %d hits", strat, len(assigned), len(un), len(window))
			}
			usedUnits := map[int]bool{}
			for _, as := range assigned {
				if usedUnits[as.Unit.ID] {
					t.Fatalf("strategy %v: unit %d double-booked", strat, as.Unit.ID)
				}
				usedUnits[as.Unit.ID] = true
			}
		}
	}
}

func TestRoundLatency(t *testing.T) {
	if RoundLatency(16) != 25 {
		t.Errorf("RoundLatency(16) = %d", RoundLatency(16))
	}
	if RoundLatency(0) != 9 {
		t.Errorf("RoundLatency(0) = %d", RoundLatency(0))
	}
}

func TestStatsOptimalFraction(t *testing.T) {
	s := Stats{Optimal: 3, NearOptimal: 1}
	if s.OptimalFraction() != 0.75 {
		t.Errorf("fraction = %v", s.OptimalFraction())
	}
	if (Stats{}).OptimalFraction() != 0 {
		t.Error("empty stats fraction should be 0")
	}
}
