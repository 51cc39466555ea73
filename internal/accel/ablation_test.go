package accel

import (
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/seq"
)

func TestRunIsDeterministic(t *testing.T) {
	t.Parallel()
	// The discrete-event simulation must be bit-reproducible: same
	// workload, same configuration, same report.
	a, reads := testWorkload(t, 300, 31)
	var first *Report
	for trial := 0; trial < 2; trial++ {
		sys, err := New(a, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		rep := sys.Run(reads)
		if first == nil {
			first = rep
			continue
		}
		if rep.Cycles != first.Cycles {
			t.Fatalf("cycles differ across runs: %d vs %d", rep.Cycles, first.Cycles)
		}
		if rep.TotalHits != first.TotalHits || rep.Switches != first.Switches {
			t.Fatal("hit/switch counts differ across runs")
		}
		for i := range rep.Results {
			if rep.Results[i] != first.Results[i] {
				t.Fatalf("result %d differs across runs", i)
			}
		}
	}
}

func TestPaper51PEUniformAblation(t *testing.T) {
	t.Parallel()
	// Paper Sec. IV-C, last paragraph: distributing the same PE budget
	// as five uniform 51-PE units "still can not outperform our hybrid
	// approach" because Formula 3's multi-pass penalty remains. We
	// check the iso-budget comparison at system scale: hybrid (derived
	// via Eq. 5) at least matches the odd-sized uniform pool.
	a, reads := testWorkload(t, 600, 33)
	classes, err := DeriveEUClasses(a, reads[:300], []int{16, 32, 64, 128}, 2880)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := NvWaOptions()
	hybrid.Config.EUClasses = classes

	uniform51 := NvWaOptions()
	uniform51.Config.EUClasses = []core.EUClass{{PEs: 51, Count: 2880 / 51}}

	sysH, err := New(a, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	sysU, err := New(a, uniform51)
	if err != nil {
		t.Fatal(err)
	}
	h := sysH.Run(reads)
	u := sysU.Run(reads)
	if float64(h.Cycles) > 1.05*float64(u.Cycles) {
		t.Errorf("hybrid (%d cycles) lost to uniform 51-PE pool (%d cycles)", h.Cycles, u.Cycles)
	}
}

func TestAblationSeedingStrategiesOrdering(t *testing.T) {
	t.Parallel()
	// With everything else equal, one-cycle seeding must never be
	// slower than read-in-batch.
	a, reads := testWorkload(t, 500, 35)
	oc := smallOpts()
	batch := smallOpts()
	batch.SeedStrategy = ReadInBatch
	sysOC, _ := New(a, oc)
	sysB, _ := New(a, batch)
	rOC := sysOC.Run(reads)
	rB := sysB.Run(reads)
	if rOC.Cycles > rB.Cycles {
		t.Errorf("one-cycle (%d) slower than batch (%d)", rOC.Cycles, rB.Cycles)
	}
	if rOC.SUUtil < rB.SUUtil {
		t.Errorf("one-cycle SU util %.3f below batch %.3f", rOC.SUUtil, rB.SUUtil)
	}
}

func TestAblationExclusiveAllocatorUnderperforms(t *testing.T) {
	t.Parallel()
	// The paper's basic method (1): exclusive per-class allocation
	// wastes idle capacity when class demand is bursty, so it must not
	// beat the grouped allocator.
	a, reads := testWorkload(t, 500, 37)
	grouped := smallOpts()
	excl := smallOpts()
	excl.AllocStrategy = 1 // coordinator.Exclusive
	sysG, _ := New(a, grouped)
	sysE, _ := New(a, excl)
	rG := sysG.Run(reads)
	rE := sysE.Run(reads)
	if float64(rG.Cycles) > 1.05*float64(rE.Cycles) {
		t.Errorf("grouped (%d) lost to exclusive (%d)", rG.Cycles, rE.Cycles)
	}
}

func TestFragmentationCompactionKeepsPipelineLive(t *testing.T) {
	t.Parallel()
	// With a batch window larger than the EU pool (core.AllocWindow hits
	// against smallOpts' 10 EUs), every round leaves unallocated hits;
	// the compaction path must still drain everything.
	a, reads := testWorkload(t, 300, 39)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	extended := 0
	for _, r := range rep.Results {
		extended += r.Hits
	}
	if extended != rep.TotalHits {
		t.Fatalf("lost hits under oversized windows: %d of %d", extended, rep.TotalHits)
	}
}

func TestEmptyAndDegenerateWorkloads(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 1, 41)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(nil)
	if rep.Reads != 0 || rep.TotalHits != 0 {
		t.Errorf("empty workload produced %d reads %d hits", rep.Reads, rep.TotalHits)
	}
	// A read of junk (all same base) typically produces no seeds but
	// must still terminate.
	junk := make([]byte, 101)
	sys2, _ := New(a, smallOpts())
	rep2 := sys2.Run([]seq.Seq{junk})
	_ = rep2
}
