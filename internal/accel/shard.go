package accel

import (
	"errors"
	"fmt"

	"nvwa/internal/fault"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// ShardPolicy selects how a read set is partitioned across shards.
type ShardPolicy int

const (
	// ShardContiguous assigns contiguous, size-balanced index ranges:
	// shard i gets reads [i*⌈n/S⌉ ...), with the first n mod S shards
	// one read larger. Preserves locality of the input order.
	ShardContiguous ShardPolicy = iota
	// ShardInterleaved deals reads round-robin (read g goes to shard
	// g mod S), resisting skew when expensive reads cluster in the
	// input (the SaLoBa-style balance-over-locality trade).
	ShardInterleaved
	// ShardBalanced starts from the contiguous assignment and
	// rebalances it with the deterministic work-stealing planner
	// (rebalance.go): per-read costs are estimated with a seed-density
	// probe of the FM-index, and idle shards steal trailing read
	// ranges from the heaviest shard at fixed epoch boundaries. The
	// resulting partition — and therefore the merged Report — is a
	// pure function of (workload, shard count).
	ShardBalanced
)

// String names the policy.
func (p ShardPolicy) String() string {
	switch p {
	case ShardContiguous:
		return "contiguous"
	case ShardInterleaved:
		return "interleaved"
	case ShardBalanced:
		return "balanced"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseShardPolicy parses a policy name.
func ParseShardPolicy(s string) (ShardPolicy, error) {
	switch s {
	case "contiguous":
		return ShardContiguous, nil
	case "interleaved":
		return ShardInterleaved, nil
	case "balanced":
		return ShardBalanced, nil
	default:
		return 0, fmt.Errorf("accel: unknown shard policy %q (valid policies: contiguous, interleaved, balanced)", s)
	}
}

// PartitionReads deterministically partitions read indices [0, n) into
// shards parts under the policy. Every index appears in exactly one
// part; parts differ in size by at most one; the result is a pure
// function of (n, shards, pol). ShardBalanced maps to the contiguous
// layout here — it is the initial assignment the steal planner
// rebalances; cost-aware partitions come from PlanBalanced.
func PartitionReads(n, shards int, pol ShardPolicy) [][]int {
	if shards < 1 {
		shards = 1
	}
	parts := make([][]int, shards)
	switch pol {
	case ShardInterleaved:
		base, rem := n/shards, n%shards
		for i := range parts {
			size := base
			if i < rem {
				size++
			}
			parts[i] = make([]int, 0, size)
		}
		for g := 0; g < n; g++ {
			parts[g%shards] = append(parts[g%shards], g)
		}
	default:
		base, rem := n/shards, n%shards
		g := 0
		for i := range parts {
			size := base
			if i < rem {
				size++
			}
			p := make([]int, size)
			for k := range p {
				p[k] = g
				g++
			}
			parts[i] = p
		}
	}
	return parts
}

// ShardedOptions configures a scale-out run: S independent accelerator
// chips, each simulating one shard of the read set with the embedded
// per-chip Options, run concurrently on a bounded worker pool.
type ShardedOptions struct {
	// Options is the per-chip configuration, applied identically to
	// every shard. Faults is interpreted over the aggregate machine
	// (S×NumSUs SUs, S×TotalEUs EUs) and partitioned per shard with
	// unit-id remapping; Memo is the aggregate workload's cache, from
	// which per-shard views are derived; Obs is the parent observer
	// the per-shard observers merge into; Watchdog is shared across
	// shards (it is read-only during a run).
	Options
	// Shards is the shard count S; it must be >= 1. Exactly 1 means a
	// single unsharded system (the byte-identical fallthrough);
	// anything below 1 is rejected by NewSharded.
	Shards int
	// Policy is the read-partitioning policy.
	Policy ShardPolicy
	// Workers bounds concurrent shard simulations; <= 0 means
	// GOMAXPROCS. The merged Report is invariant to Workers.
	Workers int
	// CheckpointEvery snapshots every shard at each multiple of this
	// many cycles (0 disables). Checkpoints are what chip-crash events
	// in Faults recover from: a crashed shard restarts from its last
	// snapshot and re-simulates the lost span, and the merged Report
	// stays identical to the crash-free run's — only Report.Recovery
	// records the crash count, replayed cycles, and checkpoint
	// traffic. With no crashes in the plan, checkpointing is pure
	// overhead accounting (plus abort artifacts via OnAbort).
	CheckpointEvery int64
}

// ShardedSystem runs S independent System instances over a partitioned
// read set and merges their Reports deterministically. Like System, a
// ShardedSystem is built per run.
//
// Determinism contract: the merged Report depends only on (workload,
// per-chip Options, Shards, Policy) — never on Workers or shard
// completion order. For Shards <= 1 the run is delegated wholesale to
// the unsharded System, so its Report is byte-identical to New +
// RunChecked.
type ShardedSystem struct {
	opts    ShardedOptions
	aligner *pipeline.Aligner
	acc     *MergeAcc
}

// NewSharded builds a sharded system over an existing aligner.
func NewSharded(aligner *pipeline.Aligner, opts ShardedOptions) (*ShardedSystem, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("accel: invalid shard count %d (want >= 1; 1 runs unsharded)", opts.Shards)
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	switch opts.Policy {
	case ShardContiguous, ShardInterleaved, ShardBalanced:
	default:
		return nil, fmt.Errorf("accel: invalid shard policy %d (valid policies: contiguous, interleaved, balanced)", int(opts.Policy))
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("accel: invalid checkpoint interval %d (want >= 0; 0 disables)", opts.CheckpointEvery)
	}
	// Chip-crash events address shards; they are consumed by the
	// recovery layer here, never injected, so they are validated
	// against the shard topology up front.
	_, crashes := fault.SplitChipCrashes(opts.Faults)
	for i, ev := range crashes {
		if ev.Unit < 0 || ev.Unit >= opts.Shards {
			return nil, fmt.Errorf("accel: %s targets shard %d, but the system has %d shards", ev.Kind, ev.Unit, opts.Shards)
		}
		if ev.Cycle < 1 {
			return nil, fmt.Errorf("accel: %s at cycle %d: a crash must land at cycle >= 1, after the shard has started", ev.Kind, ev.Cycle)
		}
		// crashes are canonically ordered, so duplicates are adjacent.
		if i > 0 && crashes[i-1].Unit == ev.Unit && crashes[i-1].Cycle == ev.Cycle {
			return nil, fmt.Errorf("accel: duplicate %s kills shard %d twice at cycle %d", ev.Kind, ev.Unit, ev.Cycle)
		}
	}
	return &ShardedSystem{opts: opts, aligner: aligner, acc: NewMergeAcc()}, nil
}

// Describe summarises the sharded configuration.
func (ss *ShardedSystem) Describe() string {
	chip := fmt.Sprintf("%d SUs, %d EUs (%d PEs), seed=%s, alloc=%s, buffer=%d",
		ss.opts.Config.NumSUs, ss.opts.Config.TotalEUs(), ss.opts.Config.TotalPEs(),
		ss.opts.SeedStrategy, ss.opts.AllocStrategy, ss.opts.Config.HitsBufferDepth)
	if ss.opts.Shards <= 1 {
		return chip
	}
	return fmt.Sprintf("%d shards (%s) × [%s]", ss.opts.Shards, ss.opts.Policy, chip)
}

// Run simulates all shards and returns the merged report, ignoring
// watchdog diagnoses (use RunChecked to receive them).
func (ss *ShardedSystem) Run(reads []seq.Seq) *Report {
	r, _ := ss.RunChecked(reads)
	return r
}

// RunChecked is Run returning the first error: a shard construction
// failure, or the joined watchdog diagnoses of every shard that
// tripped its budget (the merged report then covers the simulated
// prefixes).
func (ss *ShardedSystem) RunChecked(reads []seq.Seq) (*Report, error) {
	rep, _, err := ss.RunDetailed(reads)
	return rep, err
}

// RunDetailed runs the sharded simulation and returns the merged
// report together with the per-shard reports (nil shard slice when
// Shards <= 1, where the unsharded System runs directly).
func (ss *ShardedSystem) RunDetailed(reads []seq.Seq) (*Report, []*Report, error) {
	o := ss.opts
	// The recovery layer consumes chip-crash events before anything is
	// partitioned or injected: the injectable schedule (rest) is what
	// every shard simulates, which is why a crashed-and-recovered run's
	// merged Report is identical to the crash-free run over rest.
	rest, crashEvs := fault.SplitChipCrashes(o.Faults)
	crashCycles := make(map[int][]int64)
	for _, ev := range crashEvs {
		crashCycles[ev.Unit] = append(crashCycles[ev.Unit], ev.Cycle)
	}

	if o.Shards <= 1 {
		if len(crashEvs) == 0 && o.CheckpointEvery <= 0 {
			// Direct path: byte-identical to New + RunChecked, with
			// the observer written directly rather than merged from a
			// shard-prefixed mirror.
			sys, err := New(ss.aligner, o.Options)
			if err != nil {
				return nil, nil, err
			}
			rep, runErr := sys.RunChecked(reads)
			return rep, nil, runErr
		}
		so := o.Options
		so.Faults = rest
		rep, fo, runErr := runRecovered(ss.aligner, so, o.Obs, 0, reads, crashCycles[0], o.CheckpointEvery)
		if rep == nil {
			return nil, nil, runErr
		}
		if parent := o.Obs; parent != nil && fo != nil {
			parent.Metrics.Absorb(fo.Metrics, 0)
			parent.Trace.Absorb(fo.Trace, 0)
			parent.Inv.AbsorbShard(fo.Inv, 0)
			exportHeadline(parent.Metrics, rep)
		}
		return rep, nil, runErr
	}

	s := o.Shards
	var parts [][]int
	var stealLog []StealEvent
	if o.Policy == ShardBalanced {
		// The whole steal schedule is resolved in estimate space before
		// any shard simulates, so the partition is a pure function of
		// (workload, S) and the worker pool below cannot perturb it. A
		// memo over this exact workload probes the costs once for all
		// of its runs.
		costs, ok := o.Memo.readCosts(ss.aligner, reads, o.Workers)
		if !ok {
			costs = EstimateReadCosts(ss.aligner, reads, o.Workers)
		}
		parts, stealLog = PlanBalanced(costs, s)
	} else {
		parts = PartitionReads(len(reads), s, o.Policy)
	}
	plans := fault.PartitionPlan(rest, s, o.Config.NumSUs, o.Config.TotalEUs())

	// Per-shard memo views, derived only when the parent memo holds
	// exactly this workload; each shard System still binds its view at
	// Feed.
	var views []*Memo
	if o.Memo.holds(reads) {
		views = o.Memo.ShardViews(o.Policy, s, parts)
	}

	shardReads := make([][]seq.Seq, s)
	for i, part := range parts {
		if o.Policy == ShardContiguous && len(part) > 0 {
			shardReads[i] = reads[part[0] : part[len(part)-1]+1]
		} else {
			sub := make([]seq.Seq, len(part))
			for li, gi := range part {
				sub[li] = reads[gi]
			}
			shardReads[i] = sub
		}
	}

	reps := make([]*Report, s)
	errs := make([]error, s)
	shardObs := make([]*obs.Observer, s)

	fanOut(s, o.Workers, func(i int) {
		so := o.Options
		so.Faults = plans[i]
		so.Memo = nil
		if views != nil {
			so.Memo = views[i]
		}
		reps[i], shardObs[i], errs[i] = runRecovered(ss.aligner, so, o.Obs, i, shardReads[i], crashCycles[i], o.CheckpointEvery)
	})

	for i, rep := range reps {
		if rep == nil {
			// Construction failed: nothing to merge.
			return nil, nil, errs[i]
		}
	}
	runErr := errors.Join(errs...)
	merged := ss.merge(reads, reps, parts, stealLog, shardObs, runErr)
	return merged, reps, runErr
}

// merge reduces the per-shard reports into the aggregate Report with
// exact, order-independent reductions, scatters the per-read results
// back to global indices, merges fault ledgers and observer state, and
// closes the cross-shard conservation invariant.
func (ss *ShardedSystem) merge(reads []seq.Seq, reps []*Report, parts [][]int,
	stealLog []StealEvent, shardObs []*obs.Observer, runErr error) *Report {
	o := ss.opts
	acc := ss.acc
	acc.Reset()
	for _, rep := range reps {
		acc.Add(rep)
	}
	merged := acc.Merged(o.Config.ClockGHz)
	merged.Description = ss.Describe()
	merged.StealLog = stealLog

	// Recovery accounting sums outside MergeAcc: it is driver-side
	// bookkeeping, absent from crash-free shards, and must not perturb
	// the simulated-report reductions the reference-merge oracle pins.
	var recovery *RecoveryStats
	for _, rep := range reps {
		if rep.Recovery != nil {
			if recovery == nil {
				recovery = &RecoveryStats{}
			}
			recovery.add(rep.Recovery)
		}
	}
	merged.Recovery = recovery

	// Exact scatter: shard-local per-read results and hit ledgers back
	// onto the global index space, in shard order.
	merged.Results = make([]pipeline.Result, len(reads))
	nLens := 0
	for _, rep := range reps {
		nLens += len(rep.HitLens)
	}
	merged.HitLens = make([]int, 0, nLens)
	for i, rep := range reps {
		for li, gi := range parts[i] {
			if li < len(rep.Results) {
				merged.Results[gi] = rep.Results[li]
			}
		}
		merged.HitLens = append(merged.HitLens, rep.HitLens...)
	}

	// Fault accounting: field-wise sums with dead-letter read indices
	// remapped to global, stamped with the aggregate plan's hash.
	anyFaults := false
	sums := make([]fault.Summary, len(reps))
	for i, rep := range reps {
		if rep.Faults != nil {
			anyFaults = true
			sums[i] = *rep.Faults
		}
	}
	if anyFaults {
		fs := fault.MergeSummaries(sums, parts)
		// Stamped with the stripped (injectable) plan's hash: the chip
		// crashes were consumed by the recovery layer, never injected,
		// so the merged fault ledger matches the crash-free run's.
		rest, _ := fault.SplitChipCrashes(o.Faults)
		fs.PlanHash = rest.Hash()
		fs.DegradedThroughputRPS = merged.ThroughputReadsPerSec
		merged.Faults = &fs
	}

	// Observer merge: counters sum, gauges/series/traces carry over
	// shard-tagged, invariant ledgers sum with cross-shard conservation
	// closed (skipped when a shard aborted on its watchdog — an aborted
	// shard legitimately strands hits).
	if parent := o.Obs; parent != nil {
		ledgers := make([]obs.Ledger, len(shardObs))
		for i, so := range shardObs {
			if so == nil {
				continue
			}
			parent.Metrics.Absorb(so.Metrics, i)
			parent.Trace.Absorb(so.Trace, i)
			ledgers[i] = so.Inv.Ledger()
			parent.Inv.AbsorbShard(so.Inv, i)
		}
		if runErr == nil {
			parent.Inv.CheckShardConservation(int64(merged.TotalHits), ledgers)
			// Read-routing conservation: every read — stolen or not —
			// is assigned to exactly one shard and simulated by the
			// shard it was assigned to.
			assigned := make([]int64, len(parts))
			executed := make([]int64, len(reps))
			for i, p := range parts {
				assigned[i] = int64(len(p))
			}
			for i, rep := range reps {
				executed[i] = int64(rep.Reads)
			}
			parent.Inv.CheckShardCover(int64(len(reads)), assigned, executed)
		}
		exportHeadline(parent.Metrics, merged)
	}
	return merged
}
