package accel

import (
	"encoding/json"
	"testing"

	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

func testWorkload(t *testing.T, nReads int, seed int64) (*pipeline.Aligner, []seq.Seq) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), 80000, seed)
	a := pipeline.New(ref.Seq, pipeline.DefaultOptions())
	reads := genome.Simulate(ref, nReads, genome.ShortReadConfig(seed+1))
	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return a, seqs
}

// reportBytes marshals a Report for byte-level comparison.
func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var allStrategies = []coordinator.Strategy{
	coordinator.Grouped, coordinator.Exclusive, coordinator.Shared, coordinator.FIFO,
}

// smallOpts scales the Table I configuration down so unit tests finish
// quickly while preserving the SU:EU ratio.
func smallOpts() Options {
	o := NvWaOptions()
	o.Config.NumSUs = 16
	o.Config.EUClasses = []core.EUClass{
		{PEs: 16, Count: 4},
		{PEs: 32, Count: 3},
		{PEs: 64, Count: 2},
		{PEs: 128, Count: 1},
	}
	o.Config.HitsBufferDepth = 128
	return o
}

func smallBaselineOpts() Options {
	o := smallOpts()
	o.Config = o.Config.UniformEUConfig(64)
	o.SeedStrategy = ReadInBatch
	o.AllocStrategy = coordinator.FIFO
	return o
}

func TestRunCompletesAndCountsReads(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 1)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	if rep.Reads != 200 {
		t.Errorf("Reads = %d", rep.Reads)
	}
	if rep.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if rep.ThroughputReadsPerSec <= 0 {
		t.Error("non-positive throughput")
	}
	if rep.TotalHits == 0 {
		t.Error("no hits produced")
	}
	if rep.Switches == 0 {
		t.Error("coordinator never switched buffers")
	}
	if len(rep.Results) != 200 {
		t.Fatalf("results length %d", len(rep.Results))
	}
}

func TestAcceleratorMatchesSoftwarePipeline(t *testing.T) {
	t.Parallel()
	// The paper's no-loss-of-accuracy claim: the accelerator's
	// per-read outcome equals the software pipeline's.
	a, reads := testWorkload(t, 150, 3)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	for i, r := range reads {
		want := a.Align(i, r)
		got := rep.Results[i]
		if got.Found != want.Found {
			t.Fatalf("read %d: found %v != %v", i, got.Found, want.Found)
		}
		if !want.Found {
			continue
		}
		if got.Score != want.Score {
			t.Fatalf("read %d: score %d != software %d", i, got.Score, want.Score)
		}
		if got.Rev != want.Rev {
			t.Fatalf("read %d: strand mismatch", i)
		}
		if got.Hits != want.Hits {
			t.Fatalf("read %d: %d hits extended, software %d", i, got.Hits, want.Hits)
		}
		// Equal-score ties may end at slightly different coordinates.
		if abs(got.RefBeg-want.RefBeg) > 8 {
			t.Fatalf("read %d: RefBeg %d vs %d", i, got.RefBeg, want.RefBeg)
		}
	}
}

func TestBaselineMatchesSoftwareToo(t *testing.T) {
	t.Parallel()
	// Scheduling must never change results — only timing.
	a, reads := testWorkload(t, 100, 5)
	sys, err := New(a, smallBaselineOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	for i, r := range reads {
		want := a.Align(i, r)
		if rep.Results[i].Found != want.Found || (want.Found && rep.Results[i].Score != want.Score) {
			t.Fatalf("read %d: baseline result differs from software", i)
		}
	}
}

func TestNvWaBeatsBaseline(t *testing.T) {
	t.Parallel()
	// The headline claim: all three mechanisms together outperform the
	// unscheduled SUs+EUs system on the same workload.
	a, reads := testWorkload(t, 400, 7)
	nvwa, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(a, smallBaselineOpts())
	if err != nil {
		t.Fatal(err)
	}
	repN := nvwa.Run(reads)
	repB := base.Run(reads)
	if repN.Cycles >= repB.Cycles {
		t.Errorf("NvWa %d cycles not faster than baseline %d", repN.Cycles, repB.Cycles)
	}
	if repN.SUUtil <= repB.SUUtil {
		t.Errorf("NvWa SU util %.3f not above baseline %.3f", repN.SUUtil, repB.SUUtil)
	}
}

func TestUtilizationBounds(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 150, 9)
	sys, _ := New(a, smallOpts())
	rep := sys.Run(reads)
	for _, u := range []float64{rep.SUUtil, rep.EUUtil, rep.EUPEUtil} {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of [0,1]", u)
		}
	}
	for _, s := range [][]float64{rep.SUSeries, rep.EUSeries} {
		if len(s) != traceBuckets {
			t.Fatalf("series length %d", len(s))
		}
		for _, v := range s {
			if v < 0 || v > 1.000001 {
				t.Fatalf("series value %v", v)
			}
		}
	}
}

func TestHitConservation(t *testing.T) {
	t.Parallel()
	// Every produced hit must be extended exactly once: total extended
	// across reads equals TotalHits.
	a, reads := testWorkload(t, 200, 11)
	sys, _ := New(a, smallOpts())
	rep := sys.Run(reads)
	extended := 0
	for _, r := range rep.Results {
		extended += r.Hits
	}
	if extended != rep.TotalHits {
		t.Errorf("extended %d hits, produced %d (lost or duplicated in the Coordinator)", extended, rep.TotalHits)
	}
	if len(rep.HitLens) != rep.TotalHits {
		t.Errorf("hit length log %d != %d", len(rep.HitLens), rep.TotalHits)
	}
}

func TestAllocStatsPopulated(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 13)
	sys, _ := New(a, smallOpts())
	rep := sys.Run(reads)
	st := rep.AllocStats
	if st.Optimal+st.NearOptimal != rep.TotalHits {
		t.Errorf("allocator saw %d hits, system produced %d", st.Optimal+st.NearOptimal, rep.TotalHits)
	}
	// The scaled-down test pool supplements across groups often, so
	// the bar here is only that a meaningful share is optimal; the
	// full-size comparison against the FIFO baseline lives in the
	// experiments package. The exact fraction moves with the EU cost
	// model (completion times decide which units are idle per round).
	if f := st.OptimalFraction(); f < 0.25 {
		t.Errorf("grouped strategy optimal fraction %.3f suspiciously low", f)
	}
}

func TestSmallBufferStillCorrect(t *testing.T) {
	t.Parallel()
	// A tiny buffer forces heavy blocking; results must be unaffected.
	a, reads := testWorkload(t, 120, 15)
	o := smallOpts()
	o.Config.HitsBufferDepth = 8
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	for i, r := range reads {
		want := a.Align(i, r)
		if rep.Results[i].Found != want.Found || (want.Found && rep.Results[i].Score != want.Score) {
			t.Fatalf("read %d wrong under tiny buffer", i)
		}
	}
	if rep.Switches < 2 {
		t.Errorf("tiny buffer switched only %d times", rep.Switches)
	}
}

func TestFewReadsThanSUs(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 5, 17)
	for _, opts := range []Options{smallOpts(), smallBaselineOpts()} {
		sys, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep := sys.Run(reads)
		if rep.Reads != 5 || rep.Cycles <= 0 {
			t.Fatalf("tiny workload failed: %+v", rep.Reads)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 1, 19)
	o := smallOpts()
	o.Config.NumSUs = 0
	if _, err := New(a, o); err == nil {
		t.Error("invalid config accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPerClassEUUtilization(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 300, 71)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	if len(rep.PerClassEUUtil) != len(sys.opts.Config.EUClasses) {
		t.Fatalf("%d class utilizations for %d classes", len(rep.PerClassEUUtil), len(sys.opts.Config.EUClasses))
	}
	// Class averages must bracket the pool average.
	lo, hi := 1.0, 0.0
	for _, u := range rep.PerClassEUUtil {
		if u < 0 || u > 1 {
			t.Fatalf("class utilization %v out of range", u)
		}
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if rep.EUUtil < lo-1e-9 || rep.EUUtil > hi+1e-9 {
		t.Errorf("pool utilization %.3f outside class range [%.3f, %.3f]", rep.EUUtil, lo, hi)
	}
}

// testWorkloadRecords returns the aligner plus full read records (with
// simulation ground truth).
func testWorkloadRecords(t *testing.T, nReads int, seed int64) (*pipeline.Aligner, []genome.Read) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), 80000, seed)
	a := pipeline.New(ref.Seq, pipeline.DefaultOptions())
	return a, genome.Simulate(ref, nReads, genome.ShortReadConfig(seed+1))
}
