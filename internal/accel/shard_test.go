package accel

import (
	"reflect"
	"strings"
	"testing"

	"nvwa/internal/fault"
	"nvwa/internal/obs"
)

func TestPartitionReadsProperties(t *testing.T) {
	t.Parallel()
	for _, pol := range []ShardPolicy{ShardContiguous, ShardInterleaved} {
		for _, n := range []int{0, 1, 7, 16, 101} {
			for _, s := range []int{1, 2, 3, 8, 16} {
				parts := PartitionReads(n, s, pol)
				if len(parts) != s {
					t.Fatalf("%s n=%d S=%d: %d parts", pol, n, s, len(parts))
				}
				seen := make([]bool, n)
				minSz, maxSz := n+1, -1
				for _, p := range parts {
					if len(p) < minSz {
						minSz = len(p)
					}
					if len(p) > maxSz {
						maxSz = len(p)
					}
					for _, g := range p {
						if g < 0 || g >= n || seen[g] {
							t.Fatalf("%s n=%d S=%d: bad or duplicate index %d", pol, n, s, g)
						}
						seen[g] = true
					}
				}
				for g, ok := range seen {
					if !ok {
						t.Fatalf("%s n=%d S=%d: index %d unassigned", pol, n, s, g)
					}
				}
				if maxSz-minSz > 1 {
					t.Errorf("%s n=%d S=%d: imbalance %d..%d", pol, n, s, minSz, maxSz)
				}
			}
		}
	}
	// Contiguous parts must be ascending runs (the subslice fast path
	// depends on it).
	for _, p := range PartitionReads(10, 3, ShardContiguous) {
		for k := 1; k < len(p); k++ {
			if p[k] != p[k-1]+1 {
				t.Fatalf("contiguous part not a run: %v", p)
			}
		}
	}
}

func TestParseShardPolicy(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want ShardPolicy
	}{
		{"contiguous", ShardContiguous},
		{"interleaved", ShardInterleaved},
		{"balanced", ShardBalanced},
	} {
		got, err := ParseShardPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseShardPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	_, err := ParseShardPolicy("zigzag")
	if err == nil {
		t.Fatal("ParseShardPolicy accepted garbage")
	}
	// The rejection must name every valid policy, so a user holding only
	// the error can fix their flag.
	for _, name := range []string{"contiguous", "interleaved", "balanced"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseShardPolicy error %q does not mention %q", err, name)
		}
	}
}

// TestShardedOneShardIdenticalToUnsharded is the golden byte-identity
// guarantee: shards=1 must be exactly the unsharded system.
func TestShardedOneShardIdenticalToUnsharded(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 3)
	plain, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run(reads)

	sys, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if parts != nil {
		t.Errorf("S=1 returned %d shard reports, want none", len(parts))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("S=1 sharded report differs from unsharded report")
	}
}

// TestShardedInvariantToWorkers pins the determinism contract: for each
// shard count and policy, the merged report (and every per-shard
// report) is identical whether the shards ran serially or concurrently.
func TestShardedInvariantToWorkers(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 240, 5)
	for _, pol := range []ShardPolicy{ShardContiguous, ShardInterleaved, ShardBalanced} {
		for _, s := range []int{2, 4, 8} {
			var base *Report
			var baseParts []*Report
			for _, workers := range []int{1, 4} {
				sys, err := NewSharded(a, ShardedOptions{
					Options: smallOpts(), Shards: s, Policy: pol, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, parts, runErr := sys.RunDetailed(reads)
				if runErr != nil {
					t.Fatalf("%s S=%d w=%d: %v", pol, s, workers, runErr)
				}
				if base == nil {
					base, baseParts = rep, parts
					continue
				}
				if !reflect.DeepEqual(rep, base) {
					t.Errorf("%s S=%d: merged report varies with worker count", pol, s)
				}
				if !reflect.DeepEqual(parts, baseParts) {
					t.Errorf("%s S=%d: shard reports vary with worker count", pol, s)
				}
			}
		}
	}
}

// TestShardedMergeSemantics checks the aggregate reductions against the
// per-shard reports they were reduced from.
func TestShardedMergeSemantics(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 7)
	sys, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	merged, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var maxCycles int64
	sumReads, sumHits, sumSwitches := 0, 0, 0
	for _, p := range parts {
		if p.Cycles > maxCycles {
			maxCycles = p.Cycles
		}
		sumReads += p.Reads
		sumHits += p.TotalHits
		sumSwitches += p.Switches
	}
	if merged.Cycles != maxCycles {
		t.Errorf("merged makespan %d != max shard makespan %d", merged.Cycles, maxCycles)
	}
	if merged.Reads != sumReads || merged.Reads != len(reads) {
		t.Errorf("merged reads %d, Σ shard reads %d, want %d", merged.Reads, sumReads, len(reads))
	}
	if merged.TotalHits != sumHits {
		t.Errorf("merged hits %d != Σ shard hits %d", merged.TotalHits, sumHits)
	}
	if merged.Switches != sumSwitches {
		t.Errorf("merged switches %d != Σ shard switches %d", merged.Switches, sumSwitches)
	}
	if len(merged.Results) != len(reads) {
		t.Fatalf("merged results %d, want %d", len(merged.Results), len(reads))
	}
	// Per-read results must be the unsharded per-read outcomes: each
	// read aligns in an identical chip regardless of which shard it
	// lands on.
	plain, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run(reads)
	if !reflect.DeepEqual(merged.Results, want.Results) {
		t.Errorf("scattered per-read results differ from unsharded results")
	}
	if merged.ThroughputReadsPerSec <= want.ThroughputReadsPerSec {
		t.Errorf("S=4 aggregate throughput %.0f not above unsharded %.0f",
			merged.ThroughputReadsPerSec, want.ThroughputReadsPerSec)
	}
}

// TestMergeAccMatchesReference pins the optimized reduction to the
// specification implementation on real shard reports — exact equality,
// not approximate.
func TestMergeAccMatchesReference(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 11)
	o := smallOpts()
	sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	acc := NewMergeAcc()
	for _, p := range parts {
		acc.Add(p)
	}
	got := acc.Merged(o.Config.ClockGHz)
	want := MergeReportsReference(parts, o.Config.ClockGHz)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeAcc result diverges from MergeReportsReference")
	}
}

// TestShardedFaultLedgerConservation runs a seeded aggregate fault plan
// through the sharded engine and audits the merged accounting.
func TestShardedFaultLedgerConservation(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 17)
	o := smallOpts()
	const s = 4
	sp := fault.DefaultSpec(9)
	sp.Horizon = 4000
	plan := sp.Generate(o.Config.NumSUs*s, o.Config.TotalEUs()*s)
	o.Faults = plan

	sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: s})
	if err != nil {
		t.Fatal(err)
	}
	merged, parts, runErr := sys.RunDetailed(reads)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if merged.Faults == nil {
		t.Fatal("sharded faulted run reported no fault summary")
	}
	f := merged.Faults
	if f.PlanHash != plan.Hash() {
		t.Errorf("merged summary hash %x != aggregate plan hash %x", f.PlanHash, plan.Hash())
	}
	if f.Planned != plan.Len() {
		t.Errorf("Σ shard planned %d != aggregate plan events %d", f.Planned, plan.Len())
	}
	if f.Absorbed+f.Expired != f.Injected {
		t.Errorf("injection ledger open: absorbed %d + expired %d != injected %d",
			f.Absorbed, f.Expired, f.Injected)
	}
	if f.Injected > f.Planned {
		t.Errorf("injected %d exceeds planned %d", f.Injected, f.Planned)
	}
	if f.Requeued != f.Retried+f.DeadLettered {
		t.Errorf("retry ledger open: requeued %d != retried %d + dead-lettered %d",
			f.Requeued, f.Retried, f.DeadLettered)
	}
	// Differential: the per-shard summaries must sum to the merged one.
	var planned, injected int
	for _, p := range parts {
		if p.Faults == nil {
			continue
		}
		planned += p.Faults.Planned
		injected += p.Faults.Injected
	}
	if planned != f.Planned || injected != f.Injected {
		t.Errorf("shard summaries (planned %d, injected %d) do not sum to merged (%d, %d)",
			planned, injected, f.Planned, f.Injected)
	}
}

// TestShardedMemoMatchesDirect checks that memo-view-backed sharded
// runs replay to the exact reports of the memo-free sharded run.
func TestShardedMemoMatchesDirect(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 19)
	o := smallOpts()
	run := func(memo *Memo) *Report {
		oo := o
		oo.Memo = memo
		sys, err := NewSharded(a, ShardedOptions{Options: oo, Shards: 4})
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
		t.Errorf("memo-backed sharded run differs from direct sharded run")
	}
}

// TestShardedObserved attaches a full observer to a sharded run and
// checks the cross-shard conservation invariant closes, the merged
// headline gauges exist, and observation never changes the report.
func TestShardedObserved(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 23)
	run := func(ob *obs.Observer) *Report {
		o := smallOpts()
		o.Obs = ob
		sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		rep, runErr := sys.RunChecked(reads)
		if runErr != nil {
			t.Fatal(runErr)
		}
		return rep
	}
	plain := run(nil)
	ob := obs.New()
	observed := run(ob)
	if err := ob.Inv.Err(); err != nil {
		t.Fatalf("cross-shard invariant violated: %v", err)
	}
	if ob.Inv.Checks() == 0 {
		t.Error("invariant checker ran no checks")
	}
	if !reflect.DeepEqual(observed, plain) {
		t.Errorf("observation changed the merged report")
	}
	snap := ob.Metrics.Snapshot()
	for _, name := range []string{
		"sim.cycles", "throughput.reads_per_sec", "su.utilization",
		"shard0.sim.cycles", "shard3.sim.cycles",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("merged metrics missing gauge %s", name)
		}
	}
	if got := snap.Gauges["sim.cycles"]; got != float64(plain.Cycles) {
		t.Errorf("merged sim.cycles gauge %v != makespan %d", got, plain.Cycles)
	}
}

// TestNewShardedRejectsBadOptions covers constructor validation.
func TestNewShardedRejectsBadOptions(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 10, 29)
	bad := smallOpts()
	bad.Config.NumSUs = 0
	if _, err := NewSharded(a, ShardedOptions{Options: bad, Shards: 2}); err == nil {
		t.Error("NewSharded accepted invalid config")
	}
	if _, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardPolicy(9)}); err == nil {
		t.Error("NewSharded accepted invalid policy")
	}
	if _, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 0}); err == nil {
		t.Error("NewSharded accepted shards=0")
	}
	if _, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: -3}); err == nil {
		t.Error("NewSharded accepted negative shard count")
	}
}
