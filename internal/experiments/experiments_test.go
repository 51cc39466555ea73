package experiments

import (
	"strings"
	"sync"
	"testing"

	"nvwa/internal/seedsched"
)

// testEnv builds a small-but-representative workload once per test
// binary (index construction dominates). The sync.Once makes the
// shared env safe for t.Parallel tests; the Env itself is
// concurrency-safe by construction.
var (
	sharedEnvOnce sync.Once
	sharedEnv     *Env
)

func getEnv(t *testing.T) *Env {
	t.Helper()
	sharedEnvOnce.Do(func() { sharedEnv = NewEnv(60000, 800, 42) })
	return sharedEnv
}

func TestFig2ShowsDiversity(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	res := Fig2(env, 500)
	if len(res.Profiles) != 500 {
		t.Fatalf("%d profiles", len(res.Profiles))
	}
	// The paper's observation: per-read totals and phase proportions
	// vary substantially.
	if res.Total.CV < 0.15 {
		t.Errorf("per-read total CV = %.3f; diversity missing", res.Total.CV)
	}
	if res.SeedingFraction.Max-res.SeedingFraction.Min < 0.2 {
		t.Errorf("seeding fraction range [%.2f, %.2f] too narrow",
			res.SeedingFraction.Min, res.SeedingFraction.Max)
	}
	if !strings.Contains(res.Format(), "zoom") {
		t.Error("format missing zoom window")
	}
}

func TestFig5OneCycleWins(t *testing.T) {
	t.Parallel()
	res := Fig5()
	if res.OneCycleMakespan >= res.BatchMakespan {
		t.Errorf("one-cycle %d not faster than batch %d", res.OneCycleMakespan, res.BatchMakespan)
	}
	if res.OneCycleUtilized <= res.BatchUtilization {
		t.Errorf("one-cycle util %.2f not above batch %.2f", res.OneCycleUtilized, res.BatchUtilization)
	}
	if !strings.Contains(res.Format(), "speedup") {
		t.Error("format incomplete")
	}
}

func TestFig5CustomDurations(t *testing.T) {
	t.Parallel()
	// Uniform durations: both strategies are equivalent (one-cycle may
	// only win by batch boundary effects).
	durations := []int{10, 10, 10, 10}
	batch, _ := simulateToy(seedsched.NewBatchAllocator(4).Allocate, durations, 4)
	oneCycle, _ := simulateToy(seedsched.NewOneCycleAllocator(4).Allocate, durations, 4)
	if batch != oneCycle {
		t.Errorf("uniform durations should tie: %d vs %d", batch, oneCycle)
	}
}

func TestFig6DepthsMatchPaper(t *testing.T) {
	t.Parallel()
	rows := Fig6()
	want := map[int]int{64: 6, 128: 7, 256: 8, 512: 9}
	for _, r := range rows {
		if r.TreeDepth != want[r.Units] {
			t.Errorf("units %d: depth %d, want %d", r.Units, r.TreeDepth, want[r.Units])
		}
		if !r.MeetsOneGHz {
			t.Errorf("units %d: misses 1 GHz (paper: 0.9 ns critical path)", r.Units)
		}
	}
	if !strings.Contains(FormatFig6(rows), "512") {
		t.Error("format incomplete")
	}
}

func TestFig8Observations(t *testing.T) {
	t.Parallel()
	series := Fig8()
	if len(series) != 2 || series[0].Len != 9 || series[1].Len != 64 {
		t.Fatal("expected curves for lengths 9 and 64")
	}
	for _, s := range series {
		if s.Best != s.Len {
			t.Errorf("len %d: best P = %d, want %d (observation 1)", s.Len, s.Best, s.Len)
		}
	}
	FormatFig8(series)
}

func TestFig9ReproducesPaperCycles(t *testing.T) {
	t.Parallel()
	res := Fig9()
	if res.UniformCycles != 455 {
		t.Errorf("uniform = %d cycles, paper says 455", res.UniformCycles)
	}
	if res.HybridCycles != 257 {
		t.Errorf("hybrid = %d cycles, paper says 257", res.HybridCycles)
	}
	if !strings.Contains(res.Format(), "455") {
		t.Error("format incomplete")
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	res := Fig11With(env, NewRunner(1))
	// Who wins: NvWa over SUs+EUs, and each mechanism individually
	// helps.
	if res.TotalSpeedup <= 1.5 {
		t.Errorf("total speedup %.2f too small", res.TotalSpeedup)
	}
	// Each cumulative step must not regress, and the seeding-side
	// mechanisms must clearly help.
	for name, s := range res.Ablations {
		if s < 0.95 {
			t.Errorf("%s cumulative factor %.2f — mechanism regressed", name, s)
		}
	}
	if res.Ablations["One-Cycle Read Allocator"] < 1.2 {
		t.Errorf("OCRA factor %.2f too small", res.Ablations["One-Cycle Read Allocator"])
	}
	// The three factors multiply to the total by construction.
	prod := 1.0
	for _, s := range res.Ablations {
		prod *= s
	}
	if prod/res.TotalSpeedup > 1.01 || prod/res.TotalSpeedup < 0.99 {
		t.Errorf("cumulative product %.3f != total %.3f", prod, res.TotalSpeedup)
	}
	if res.CPUSpeedup < 10 {
		t.Errorf("NvWa only %.0fx over the software pipeline", res.CPUSpeedup)
	}
	out := res.Format()
	for _, want := range []string{"GenAx", "493", "13.64"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestFig12ShapeHolds(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	res := Fig12(env)
	if res.NvWa.SUUtil <= res.Baseline.SUUtil+0.2 {
		t.Errorf("SU util gap too small: %.3f vs %.3f", res.NvWa.SUUtil, res.Baseline.SUUtil)
	}
	nOpt, bOpt := res.NvWa.AllocStats.OptimalFraction(), res.Baseline.AllocStats.OptimalFraction()
	if nOpt <= 0.35 {
		t.Errorf("NvWa optimal assignment %.3f too low", nOpt)
	}
	if bOpt >= 0.4 {
		t.Errorf("baseline optimal assignment %.3f too high", bOpt)
	}
	if nOpt-bOpt < 0.25 {
		t.Errorf("assignment-quality gap too small: %.3f vs %.3f", nOpt, bOpt)
	}
	out := res.Format()
	if !strings.Contains(out, "97.1%") || !strings.Contains(out, "SU utilization series") {
		t.Error("format incomplete")
	}
}

func TestFig13aSweep(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	rows := Fig13aWith(env, []int{4, 64, 4096}, NewRunner(1))
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Both extremes of the paper's trade-off must lose to the middle:
	// a tiny buffer blocks the SUs, and an oversized buffer (larger
	// than the workload's hit count) postpones the first switch and
	// starves the EUs.
	if rows[0].ThroughputKReads >= rows[1].ThroughputKReads {
		t.Errorf("depth 4 (%.0fK) not worse than 64 (%.0fK)",
			rows[0].ThroughputKReads, rows[1].ThroughputKReads)
	}
	if rows[2].ThroughputKReads >= rows[1].ThroughputKReads {
		t.Errorf("depth 4096 (%.0fK) not worse than 64 (%.0fK)",
			rows[2].ThroughputKReads, rows[1].ThroughputKReads)
	}
	FormatFig13a(rows)
}

func TestFig13bSweep(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	rows := Fig13bWith(env, []int{1, 4, 8}, NewRunner(1))
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// More intervals must not reduce throughput much, and must raise
	// logic power (the paper's trade-off).
	if rows[2].LogicPowerW <= rows[0].LogicPowerW {
		t.Error("logic power should grow with intervals")
	}
	// At this reduced test scale the 1-vs-4 gap can be within noise;
	// require only that 4 intervals is not substantially worse.
	if rows[1].ThroughputKReads < 0.85*rows[0].ThroughputKReads {
		t.Errorf("4 intervals (%.0fK) much worse than 1 (%.0fK)",
			rows[1].ThroughputKReads, rows[0].ThroughputKReads)
	}
	FormatFig13b(rows)
}

func TestSizesForIntervals(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		sizes := sizesForIntervals(n)
		if len(sizes) != n {
			t.Fatalf("n=%d: %d sizes", n, len(sizes))
		}
		for i := 1; i < n; i++ {
			if sizes[i] <= sizes[i-1] {
				t.Fatalf("n=%d: sizes not strictly increasing: %v", n, sizes)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	t.Parallel()
	out := Table1(getEnv(t).NvWaOptions().Config)
	for _, want := range []string{"128 SUs", "HBM v1.0", "PEs total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	rep := env.RunNvWa()
	res := Table2(rep)
	if res.NvWaEnergyPerReadJ <= 0 {
		t.Error("no energy per read computed")
	}
	out := res.Format()
	for _, want := range []string{"27.01", "5.754", "J/read", "13.38"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	if res := Table2(nil); res.SimThroughputKReads != 0 {
		t.Error("nil report should leave throughput zero")
	}
}
