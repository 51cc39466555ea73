package coordinator

import (
	"math/rand"
	"testing"

	"nvwa/internal/core"
)

// TestAllocateWarmZeroAlloc asserts the round-scratch contract on the
// production round: once warm, a full push / switch / window /
// AllocateIDs / CommitIDs cycle through the Hits Buffer performs no
// heap allocation.
func TestAllocateWarmZeroAlloc(t *testing.T) {
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		a := NewAllocator(testClasses, strat)
		b := NewHitsBuffer(32, 0.75)
		rng := rand.New(rand.NewSource(41))
		hits := make([]core.Hit, 24)
		for i := range hits {
			hits[i] = hit(i, 1+rng.Intn(200))
		}
		idle := units(testClasses)
		var ids []core.HitID
		round := func() {
			for _, h := range hits {
				b.Push(h)
			}
			b.TrySwitch(true)
			for b.PBRemaining() > 0 {
				asg, un := a.AllocateIDs(b.Arena(), b.WindowIDs(16), idle)
				if len(asg) == 0 {
					b.Drop(b.PBRemaining(), "unallocatable")
					break
				}
				ids = ids[:0]
				for _, x := range asg {
					ids = append(ids, x.ID)
				}
				b.CommitIDs(ids, un)
			}
		}
		round() // warm
		allocs := testing.AllocsPerRun(100, round)
		if allocs != 0 {
			t.Errorf("%v: warm allocation round performs %v allocs, want 0", strat, allocs)
		}
	}
}

// TestAllocateScratchReuseMatchesFresh replays identical rounds on a
// warm and a fresh allocator and demands identical outputs, so scratch
// reuse cannot leak state between rounds.
func TestAllocateScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		warm := NewAllocator(testClasses, strat)
		var ar core.HitArena
		for round := 0; round < 200; round++ {
			window := make([]core.HitID, rng.Intn(30))
			for i := range window {
				window[i] = ar.Alloc(hit(round*100+i, 1+rng.Intn(200)))
			}
			all := units(testClasses)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			idle := all[:rng.Intn(len(all)+1)]

			fresh := NewAllocator(testClasses, strat)
			wa, wu := warm.AllocateIDs(&ar, window, idle)
			fa, fu := fresh.AllocateIDs(&ar, window, idle)
			if len(wa) != len(fa) || len(wu) != len(fu) {
				t.Fatalf("%v round %d: warm (%d,%d) vs fresh (%d,%d)",
					strat, round, len(wa), len(wu), len(fa), len(fu))
			}
			for i := range wa {
				if wa[i] != fa[i] {
					t.Fatalf("%v round %d assignment %d: warm %+v fresh %+v", strat, round, i, wa[i], fa[i])
				}
			}
			for i := range wu {
				if wu[i] != fu[i] {
					t.Fatalf("%v round %d unallocated %d: warm %+v fresh %+v", strat, round, i, wu[i], fu[i])
				}
			}
			for _, id := range window {
				ar.Free(id)
			}
		}
	}
}
