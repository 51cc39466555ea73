package accel

import (
	"math"
	"reflect"
	"testing"

	"nvwa/internal/fault"
	"nvwa/internal/pipeline"
)

// lcgCosts generates a deterministic pseudo-random cost vector without
// touching math/rand, so the property tests are reproducible by
// construction.
func lcgCosts(n int, seed uint64) []float64 {
	costs := make([]float64, n)
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range costs {
		x = x*6364136223846793005 + 1442695040888963407
		costs[i] = 1 + float64(x>>33%4096) // 1..4096, heavy-tailed enough
	}
	return costs
}

// assertCover fails unless parts is an exact disjoint cover of [0, n):
// every index appears in exactly one part.
func assertCover(t *testing.T, parts [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, p := range parts {
		for _, g := range p {
			if g < 0 || g >= n || seen[g] {
				t.Fatalf("bad or duplicate index %d in partition", g)
			}
			seen[g] = true
		}
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("index %d unassigned", g)
		}
	}
}

// TestPlanBalancedCoverProperties is the planner's core safety
// property: for any cost vector and shard count, the balanced
// partition is an exact disjoint cover — stealing moves reads, never
// duplicates or drops them — and the whole plan is a pure function of
// its inputs.
func TestPlanBalancedCoverProperties(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 7, 16, 101, 256} {
		for _, s := range []int{1, 2, 3, 4, 8, 16} {
			costs := lcgCosts(n, uint64(n*31+s))
			parts, log := PlanBalanced(costs, s)
			if len(parts) != s {
				t.Fatalf("n=%d S=%d: %d parts", n, s, len(parts))
			}
			assertCover(t, parts, n)
			// Purity: a second plan over the same inputs is identical,
			// including the steal log.
			parts2, log2 := PlanBalanced(costs, s)
			if !reflect.DeepEqual(parts, parts2) || !reflect.DeepEqual(log, log2) {
				t.Fatalf("n=%d S=%d: plan not deterministic", n, s)
			}
			// Every logged steal is well-formed.
			for _, e := range log {
				if e.Victim < 0 || e.Victim >= s || e.Thief < 0 || e.Thief >= s ||
					e.Victim == e.Thief || e.Count < 1 || e.EstCost < 0 {
					t.Fatalf("n=%d S=%d: malformed steal event %+v", n, s, e)
				}
			}
		}
	}
	// On a well-conditioned workload the planner must actually balance:
	// max-shard/mean-shard estimated work within a few percent.
	costs := lcgCosts(512, 99)
	for _, s := range []int{2, 4, 8} {
		parts, _ := PlanBalanced(costs, s)
		var total, maxPart float64
		for _, p := range parts {
			var sum float64
			for _, g := range p {
				sum += costs[g]
			}
			total += sum
			if sum > maxPart {
				maxPart = sum
			}
		}
		if ratio := maxPart / (total / float64(s)); ratio > 1.10 {
			t.Errorf("S=%d: estimated-work balance %.3f exceeds 1.10", s, ratio)
		}
	}
}

// TestApplyStealsReproducesPlan pins the StealLog's meaning: replaying
// it over the contiguous assignment must reproduce the planner's
// post-steal queues exactly (the drain-window reordering happens after
// the steals, so compare against the raw planner output).
func TestApplyStealsReproducesPlan(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 101, 256} {
		for _, s := range []int{2, 3, 4, 8} {
			costs := lcgCosts(n, uint64(n+s))
			queues, log := planStealQueues(costs, s)
			replay := ApplySteals(PartitionReads(n, s, ShardContiguous), log)
			if !reflect.DeepEqual(replay, queues) {
				t.Fatalf("n=%d S=%d: replayed steal log diverges from planner queues", n, s)
			}
		}
	}
}

// TestApplyStealsMalformedEvents checks the replay path's robustness
// contract: arbitrary (even hostile) event sequences still yield an
// exact disjoint cover, and the input partition is never mutated.
func TestApplyStealsMalformedEvents(t *testing.T) {
	t.Parallel()
	const n, s = 20, 4
	parts := PartitionReads(n, s, ShardContiguous)
	snapshot := copyParts(parts)
	events := []StealEvent{
		{Victim: -1, Thief: 0, Count: 3},  // victim out of range
		{Victim: 0, Thief: s, Count: 3},   // thief out of range
		{Victim: 2, Thief: 2, Count: 3},   // self-steal
		{Victim: 1, Thief: 0, Count: 999}, // count past queue length
		{Victim: 3, Thief: 0, Count: 0},   // empty steal
		{Victim: 0, Thief: 3, Count: 2},   // legitimate
		{Victim: 1, Thief: 2, Count: 5},   // drains the (clamped) queue
	}
	out := ApplySteals(parts, events)
	assertCover(t, out, n)
	if !reflect.DeepEqual(parts, snapshot) {
		t.Error("ApplySteals mutated its input partition")
	}
}

// TestEstimateReadCostsWorkerInvariance pins the probe's purity: the
// cost vector is a function of (index, reads) alone — the worker count
// only bounds fan-out and never changes a value.
func TestEstimateReadCostsWorkerInvariance(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 37)
	base := EstimateReadCosts(a, reads, 1)
	if len(base) != len(reads) {
		t.Fatalf("got %d costs for %d reads", len(base), len(reads))
	}
	for i, c := range base {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("read %d: non-positive or non-finite cost %v", i, c)
		}
	}
	for _, workers := range []int{2, 4, 0} {
		got := EstimateReadCosts(a, reads, workers)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("cost vector varies with workers=%d", workers)
		}
	}
}

// TestEstimateReadCostsLUTInvariance pins the satellite contract of the
// seeding fast path: routing the cost probe through the k-mer LUT
// jump-start changes how counts are computed, not what they are, so the
// cost vector — and the steal schedule PlanBalanced derives from it —
// is bit-identical to the plain backward-search probe. The plain side
// is a second aligner over the same reference whose table is rebuilt
// with k=1: a 1-mer jump skips no extension step.
func TestEstimateReadCostsLUTInvariance(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 160, 43)
	if a.Seeder().Bi().LUT() == nil {
		t.Fatal("expected a default LUT on the test reference")
	}
	stepwise := pipeline.New(a.Ref(), a.Options())
	if err := stepwise.Seeder().Bi().BuildLUT(1); err != nil {
		t.Fatal(err)
	}
	withLUT := EstimateReadCosts(a, reads, 0)
	plain := EstimateReadCosts(stepwise, reads, 0)
	if !reflect.DeepEqual(withLUT, plain) {
		t.Fatal("cost vector differs between LUT and plain probes")
	}
	const s = 4
	lutParts, lutLog := PlanBalanced(withLUT, s)
	plainParts, plainLog := PlanBalanced(plain, s)
	if !reflect.DeepEqual(lutParts, plainParts) {
		t.Error("balanced partition differs between LUT and plain probes")
	}
	if !reflect.DeepEqual(lutLog, plainLog) {
		t.Error("steal schedule differs between LUT and plain probes")
	}
}

// TestShardedBalancedDifferential is the steal-invariance contract:
// the balanced policy's merged per-read Results are identical to the
// unsharded run's (a steal moves a read to a different — identical —
// chip, so its outcome cannot change), and the merged StealLog is
// exactly the planner's schedule.
func TestShardedBalancedDifferential(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 240, 41)
	plain, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run(reads)

	const s = 4
	sys, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: s, Policy: ShardBalanced})
	if err != nil {
		t.Fatal(err)
	}
	merged, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !reflect.DeepEqual(merged.Results, want.Results) {
		t.Error("balanced per-read results differ from unsharded results")
	}
	costs := EstimateReadCosts(a, reads, 0)
	planParts, planLog := PlanBalanced(costs, s)
	if !reflect.DeepEqual(merged.StealLog, planLog) {
		t.Error("merged StealLog differs from the planner's schedule")
	}
	for i, p := range parts {
		if p.Reads != len(planParts[i]) {
			t.Errorf("shard %d simulated %d reads, plan assigned %d", i, p.Reads, len(planParts[i]))
		}
	}
}

// TestShardedBalancedMemoMatchesDirect extends the memo differential to
// the balanced policy: memo-view-backed balanced runs must replay to
// the exact reports of the memo-free balanced run.
func TestShardedBalancedMemoMatchesDirect(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 43)
	o := smallOpts()
	run := func(memo *Memo) *Report {
		oo := o
		oo.Memo = memo
		sys, err := NewSharded(a, ShardedOptions{Options: oo, Shards: 4, Policy: ShardBalanced})
		if err != nil {
			t.Fatal(err)
		}
		rep, runErr := sys.RunChecked(reads)
		if runErr != nil {
			t.Fatal(runErr)
		}
		return rep
	}
	want := run(nil)
	memo := BuildMemo(a, nil, reads, 0)
	got := run(memo)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memo-backed balanced run differs from direct balanced run")
	}
}

// TestShardedBalancedFaultComposition composes the steal planner with a
// seeded aggregate fault plan: faults partition by unit id, steals move
// reads — the two must not interfere, and the merged fault ledger must
// still close exactly.
func TestShardedBalancedFaultComposition(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 47)
	o := smallOpts()
	const s = 4
	sp := fault.DefaultSpec(9)
	sp.Horizon = 4000
	plan := sp.Generate(o.Config.NumSUs*s, o.Config.TotalEUs()*s)
	o.Faults = plan

	sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: s, Policy: ShardBalanced})
	if err != nil {
		t.Fatal(err)
	}
	merged, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if merged.Faults == nil {
		t.Fatal("balanced faulted run reported no fault summary")
	}
	f := merged.Faults
	if f.Planned != plan.Len() {
		t.Errorf("Σ shard planned %d != aggregate plan events %d", f.Planned, plan.Len())
	}
	if f.Absorbed+f.Expired != f.Injected {
		t.Errorf("injection ledger open: absorbed %d + expired %d != injected %d",
			f.Absorbed, f.Expired, f.Injected)
	}
	if f.Requeued != f.Retried+f.DeadLettered {
		t.Errorf("retry ledger open: requeued %d != retried %d + dead-lettered %d",
			f.Requeued, f.Retried, f.DeadLettered)
	}
	total := 0
	for _, p := range parts {
		total += p.Reads
	}
	if total != len(reads) {
		t.Errorf("Σ shard reads %d != %d under steals + faults", total, len(reads))
	}
}

// TestMergedMakespanUtilSemantics pins the two utilization weightings:
// the cycle-weighted pair normalizes each shard's busy cycles by its
// own makespan, the makespan pair by S × merged makespan — recomputed
// here from the shard reports with the same left-to-right summation
// order the merge uses, so equality is exact, not approximate.
func TestMergedMakespanUtilSemantics(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 53)
	sys, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	merged, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var suW, euW float64
	var maxCycles int64
	for _, p := range parts {
		suW += p.SUUtil * float64(p.Cycles)
		euW += p.EUUtil * float64(p.Cycles)
		if p.Cycles > maxCycles {
			maxCycles = p.Cycles
		}
	}
	capacity := float64(len(parts)) * float64(maxCycles)
	if got := suW / capacity; merged.SUUtilMakespan != got {
		t.Errorf("merged SUUtilMakespan %v != Σ(su·c)/(S·max) %v", merged.SUUtilMakespan, got)
	}
	if got := euW / capacity; merged.EUUtilMakespan != got {
		t.Errorf("merged EUUtilMakespan %v != Σ(eu·c)/(S·max) %v", merged.EUUtilMakespan, got)
	}
	// With any imbalance the makespan weighting can only be lower.
	if merged.SUUtilMakespan > merged.SUUtil+1e-12 {
		t.Errorf("makespan-normalized SU util %v above cycle-weighted %v",
			merged.SUUtilMakespan, merged.SUUtil)
	}
	// On a single chip both weightings coincide by definition.
	for _, p := range parts {
		if p.SUUtilMakespan != p.SUUtil || p.EUUtilMakespan != p.EUUtil {
			t.Errorf("single-chip report carries diverging utilization weightings")
		}
	}
}
