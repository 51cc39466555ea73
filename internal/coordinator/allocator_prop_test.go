package coordinator

import (
	"math/rand"
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/extsched"
	"nvwa/internal/obs"
)

// TestAllocatePropertyAllStrategies drives every strategy through
// randomized rounds and checks the allocator's structural contract:
//
//  1. no unit is assigned twice in one round, and every assigned unit
//     was offered idle;
//  2. assigned + unallocated is exactly a permutation of the window
//     (no hit invented, lost, or duplicated);
//  3. under Grouped, a hit crosses the group boundary only when its
//     home group had no idle unit left at the moment it was served
//     (the disciplined-supplement rule of Sec. IV-D).
func TestAllocatePropertyAllStrategies(t *testing.T) {
	classifier := extsched.NewClassifier(testClasses)
	split := (len(testClasses) + 1) / 2
	group := func(class int) int {
		if class < split {
			return 0
		}
		return 1
	}

	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		rng := rand.New(rand.NewSource(42))
		a := NewAllocator(testClasses, strat)
		for trial := 0; trial < 300; trial++ {
			var window []core.Hit
			for i := 0; i < rng.Intn(20); i++ {
				window = append(window, hit(trial*1000+i, 1+rng.Intn(200)))
			}
			// A random subset of the pool is idle, in random order.
			all := units(testClasses)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			idle := all[:rng.Intn(len(all)+1)]

			assigned, un := a.Allocate(window, idle)

			// (1) unique units, subset of idle.
			idleSet := map[int]IdleUnit{}
			for _, u := range idle {
				idleSet[u.ID] = u
			}
			seen := map[int]bool{}
			for _, as := range assigned {
				if seen[as.Unit.ID] {
					t.Fatalf("%v trial %d: unit %d assigned twice", strat, trial, as.Unit.ID)
				}
				seen[as.Unit.ID] = true
				if got, ok := idleSet[as.Unit.ID]; !ok || got != as.Unit {
					t.Fatalf("%v trial %d: assigned unit %+v was not offered idle", strat, trial, as.Unit)
				}
			}

			// (2) partition: assigned+unallocated is a permutation of
			// the window (hits keyed by ReadIdx, unique per trial).
			want := map[int]int{}
			for _, h := range window {
				want[h.ReadIdx]++
			}
			got := map[int]int{}
			for _, as := range assigned {
				got[as.Hit.ReadIdx]++
			}
			for _, h := range un {
				got[h.ReadIdx]++
			}
			if len(assigned)+len(un) != len(window) {
				t.Fatalf("%v trial %d: %d assigned + %d unallocated != %d window",
					strat, trial, len(assigned), len(un), len(window))
			}
			for id, n := range want {
				if got[id] != n {
					t.Fatalf("%v trial %d: hit %d appears %d times in outcome, pushed %d",
						strat, trial, id, got[id], n)
				}
			}

			// (3) Grouped cross-group discipline: replay the
			// assignments in allocation order against a shrinking pool
			// and require the home group to be empty before any borrow.
			if strat == Grouped {
				avail := map[int]IdleUnit{}
				for _, u := range idle {
					avail[u.ID] = u
				}
				for _, as := range assigned {
					opt := classifier.OptimalClass(as.Hit.SchedLen())
					home := group(opt)
					if group(as.Unit.Class) != home {
						for _, u := range avail {
							if group(u.Class) == home {
								t.Fatalf("trial %d: hit len %d borrowed unit %d (class %d) while home-group unit %d (class %d) sat idle",
									trial, as.Hit.SchedLen(), as.Unit.ID, as.Unit.Class, u.ID, u.Class)
							}
						}
					}
					delete(avail, as.Unit.ID)
				}
			}

			// Exclusive never serves a hit off its optimal class.
			if strat == Exclusive {
				for _, as := range assigned {
					if as.Unit.Class != classifier.OptimalClass(as.Hit.SchedLen()) {
						t.Fatalf("trial %d: Exclusive put hit len %d on class %d",
							trial, as.Hit.SchedLen(), as.Unit.Class)
					}
				}
			}
		}
	}
}

// TestSetStatsSizesResetsWholeLedger is the regression test for the
// stats-reset bug: SetStatsSizes used to clear the per-class tallies
// but keep the optimal/nearOptimal totals, so after a re-measure the
// totals could exceed the per-class sums. The invariant is
// Optimal+NearOptimal == sum(PerClassTotal) at every point.
func TestSetStatsSizesResetsWholeLedger(t *testing.T) {
	check := func(st Stats, when string) {
		t.Helper()
		sum := 0
		for _, n := range st.PerClassTotal {
			sum += n
		}
		if st.Optimal+st.NearOptimal != sum {
			t.Fatalf("%s: Optimal(%d)+NearOptimal(%d) != sum(PerClassTotal)(%d)",
				when, st.Optimal, st.NearOptimal, sum)
		}
	}

	a := NewAllocator(testClasses, Grouped)
	window := []core.Hit{hit(0, 7), hit(1, 29), hit(2, 40), hit(3, 103)}
	if assigned, _ := a.Allocate(window, units(testClasses)); len(assigned) != 4 {
		t.Fatalf("setup allocation incomplete: %d assigned", len(assigned))
	}
	check(a.Stats(), "before reset")
	if st := a.Stats(); st.Optimal+st.NearOptimal != 4 {
		t.Fatalf("setup recorded %d assignments, want 4", st.Optimal+st.NearOptimal)
	}

	// Re-measure against a different ladder: the whole ledger must
	// restart from zero, not just the per-class arrays.
	a.SetStatsSizes([]int{64, 128})
	st := a.Stats()
	check(st, "after reset")
	if st.Optimal != 0 || st.NearOptimal != 0 {
		t.Fatalf("after SetStatsSizes: Optimal=%d NearOptimal=%d, want 0/0", st.Optimal, st.NearOptimal)
	}
	if len(st.PerClassTotal) != 2 || len(st.PerClassOptimal) != 2 {
		t.Fatalf("ladder not resized: %+v", st)
	}

	if assigned, _ := a.Allocate([]core.Hit{hit(4, 50), hit(5, 100)}, units(testClasses)); len(assigned) != 2 {
		t.Fatalf("post-reset allocation incomplete: %d assigned", len(assigned))
	}
	check(a.Stats(), "after re-measure")
	if st := a.Stats(); st.Optimal+st.NearOptimal != 2 {
		t.Fatalf("ledger after reset counts %d, want exactly the 2 new assignments", st.Optimal+st.NearOptimal)
	}
}

// TestForcedSwitchDrainsSubThresholdTail asserts the end-of-input
// contract at the buffer level: a final SB fill below threshold*depth
// must still reach the PB via a forced switch, so every pushed hit is
// eventually allocatable. The attached invariant checker audits the
// conservation ledger (pushed == assigned + pending + dropped).
func TestForcedSwitchDrainsSubThresholdTail(t *testing.T) {
	o := obs.NewInvariantsOnly()
	b := NewHitsBuffer(16, 0.75)
	var now int64
	b.AttachObs(o, func() int64 { return now })

	// 5/16 = 31% — far below the 75% threshold.
	for i := 0; i < 5; i++ {
		if !b.Push(hit(i, 10)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if b.TrySwitch(false) {
		t.Fatal("sub-threshold switch happened without force")
	}
	now = 10
	if !b.TrySwitch(true) {
		t.Fatal("forced drain switch failed: final sub-threshold SB stranded")
	}
	w := b.WindowIDs(16)
	if len(w) != 5 {
		t.Fatalf("drain window has %d hits, want 5", len(w))
	}
	b.CommitIDs(w, nil)
	o.Inv.CheckDrained(now, b.SBLen(), b.PBRemaining(), 0)
	if err := o.Inv.Err(); err != nil {
		t.Fatalf("conservation broken across forced drain: %v", err)
	}
	if l := o.Inv.Ledger(); l.Pushed != 5 || l.Assigned != 5 {
		t.Fatalf("ledger = pushed %d assigned %d, want 5/5", l.Pushed, l.Assigned)
	}
}

// TestHitsBufferDrop covers the drain path's last resort.
func TestHitsBufferDrop(t *testing.T) {
	o := obs.NewInvariantsOnly()
	b := NewHitsBuffer(8, 0.5)
	b.AttachObs(o, func() int64 { return 0 })
	for i := 0; i < 4; i++ {
		b.Push(hit(i, 10))
	}
	b.TrySwitch(false)
	if got := b.Drop(2, "unallocatable"); got != 2 {
		t.Fatalf("Drop(2) = %d", got)
	}
	if b.PBRemaining() != 2 {
		t.Fatalf("PBRemaining = %d after drop, want 2", b.PBRemaining())
	}
	// Dropping more than remains clamps; dropping zero is a no-op.
	if got := b.Drop(10, "unallocatable"); got != 2 {
		t.Fatalf("Drop(10) = %d, want clamp to 2", got)
	}
	if got := b.Drop(1, "unallocatable"); got != 0 {
		t.Fatalf("Drop on empty PB = %d, want 0", got)
	}
	o.Inv.CheckDrained(0, b.SBLen(), b.PBRemaining(), 0)
	if err := o.Inv.Err(); err != nil {
		t.Fatalf("drop ledger unbalanced: %v", err)
	}
	if o.Inv.Ledger().Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", o.Inv.Ledger().Dropped)
	}
}

// TestCanSwitchTrySwitchAgree pins TrySwitch(false) to the threshold
// predicate across the whole fill range: an unforced switch happens
// exactly when the SB reaches threshold*depth, and a successful switch
// moves the whole SB into the PB.
func TestCanSwitchTrySwitchAgree(t *testing.T) {
	for fill := 0; fill <= 8; fill++ {
		b := NewHitsBuffer(8, 0.75)
		for i := 0; i < fill; i++ {
			b.Push(hit(i, 10))
		}
		did := b.TrySwitch(false)
		if want := fill >= 6; did != want { // 0.75*8 = 6
			t.Errorf("fill %d/8: TrySwitch(false)=%v, want %v", fill, did, want)
		}
		if did && (b.SBLen() != 0 || b.PBRemaining() != fill) {
			t.Errorf("fill %d/8: after switch sb=%d pb=%d", fill, b.SBLen(), b.PBRemaining())
		}
	}
}
