package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"nvwa/internal/accel"
	"nvwa/internal/fault"
)

// The crash-recovery smoke sweep: recoverySeeds crash schedules of
// recoveryCrashes chip crashes each, on a recoveryShards-chip machine,
// across every partition policy and checkpoint interval.
const (
	recoverySeeds   = 2
	recoveryShards  = 4
	recoveryCrashes = 3
)

// recoveryPolicies are the partition policies swept.
var recoveryPolicies = []accel.ShardPolicy{
	accel.ShardContiguous, accel.ShardInterleaved, accel.ShardBalanced,
}

// recoveryIntervals are the checkpoint intervals swept, in cycles. 0
// means no periodic checkpoints: crashed shards restart from scratch.
var recoveryIntervals = []int64{0, 5000}

// crashSchedule draws n distinct (shard, cycle) chip-crash events over
// [1, horizon] from a private deterministic stream. It is generated
// directly rather than through fault.Spec so the injectable-fault RNG
// stream (and every pinned chaos figure) stays untouched.
func crashSchedule(seed int64, n, shards int, horizon int64) []fault.Event {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 7))
	if horizon < 2 {
		horizon = 2
	}
	seen := map[[2]int64]bool{}
	evs := make([]fault.Event, 0, n)
	for len(evs) < n {
		u := rng.Intn(shards)
		c := 1 + rng.Int63n(horizon-1)
		k := [2]int64{int64(u), c}
		if seen[k] {
			continue
		}
		seen[k] = true
		evs = append(evs, fault.Event{Kind: fault.ChipCrash, Cycle: c, Unit: u})
	}
	return evs
}

// RecoveryRow is one seeded crash-recovery run.
type RecoveryRow struct {
	// Policy is the shard-partition policy under test; Seed generated
	// the crash schedule; Interval is the checkpoint period (0: restart
	// from scratch).
	Policy   accel.ShardPolicy
	Seed     int64
	Interval int64
	// BaselineCycles is the crash-free merged makespan; Cycles is the
	// recovered run's (pinned equal when Identical holds).
	BaselineCycles, Cycles int64
	// Recovery is the run's crash-recovery ledger.
	Recovery accel.RecoveryStats
	// Identical reports whether the recovered merged Report, with its
	// Recovery ledger stripped, is byte-identical to the crash-free
	// baseline — the whole point of the exercise.
	Identical bool
	// RunErr is a non-empty construction or run failure.
	RunErr string
}

// OK reports whether the row recovered to the identical Report.
func (r RecoveryRow) OK() bool { return r.Identical && r.RunErr == "" }

// ReplayOverhead is the replayed-cycle cost relative to the crash-free
// makespan (the re-simulated fraction of the run).
func (r RecoveryRow) ReplayOverhead() float64 {
	if r.BaselineCycles <= 0 {
		return 0
	}
	return float64(r.Recovery.ReplayedCycles) / float64(r.BaselineCycles)
}

// RecoveryResult is the sweep outcome.
type RecoveryResult struct {
	Rows []RecoveryRow
}

// Err returns the first failing row, or nil when every schedule
// recovered byte-identically.
func (r RecoveryResult) Err() error {
	for _, row := range r.Rows {
		if row.RunErr != "" {
			return fmt.Errorf("recovery: policy=%s seed=%d every=%d: %s",
				row.Policy, row.Seed, row.Interval, row.RunErr)
		}
		if !row.Identical {
			return fmt.Errorf("recovery: policy=%s seed=%d every=%d: recovered Report diverges from crash-free run",
				row.Policy, row.Seed, row.Interval)
		}
	}
	return nil
}

// Recovery sweeps seeded chip-crash schedules across shard-partition
// policies and checkpoint intervals. Each cell runs the workload twice
// — crash-free, then with the crash schedule and periodic
// checkpointing — and asserts the merged Reports byte-identical after
// stripping the Recovery ledger, recording the replayed-cycle and
// checkpoint-traffic overheads. Rows fan across the runner's worker
// pool; collection order is program order, so output is deterministic.
func Recovery(env *Env, r *Runner) RecoveryResult {
	// Crash-free baselines, one per policy: the crash schedules draw
	// their cycles from the baseline makespan so crashes land inside the
	// run, and the recovered Reports are compared against these bytes.
	type baseline struct {
		cycles int64
		bytes  []byte
		err    string
	}
	baselines := make([]baseline, len(recoveryPolicies))
	r.Map(len(recoveryPolicies), func(i int) {
		rep, err := recoveryRun(env, recoveryPolicies[i], nil, 0)
		if err != nil {
			baselines[i].err = err.Error()
			return
		}
		baselines[i] = baseline{cycles: rep.Cycles, bytes: recoveryReportBytes(rep)}
	})

	perPolicy := recoverySeeds * len(recoveryIntervals)
	res := RecoveryResult{Rows: make([]RecoveryRow, len(recoveryPolicies)*perPolicy)}
	r.Map(len(res.Rows), func(i int) {
		pi := i / perPolicy
		ii := (i % perPolicy) / recoverySeeds
		ki := i % recoverySeeds
		row := RecoveryRow{
			Policy:   recoveryPolicies[pi],
			Seed:     int64(ki),
			Interval: recoveryIntervals[ii],
		}
		b := baselines[pi]
		if b.err != "" {
			row.RunErr = "baseline: " + b.err
			res.Rows[i] = row
			return
		}
		row.BaselineCycles = b.cycles
		crashes := crashSchedule(row.Seed, recoveryCrashes, recoveryShards, b.cycles)
		rep, err := recoveryRun(env, row.Policy, crashes, row.Interval)
		if err != nil {
			row.RunErr = err.Error()
			res.Rows[i] = row
			return
		}
		row.Cycles = rep.Cycles
		if rep.Recovery != nil {
			row.Recovery = *rep.Recovery
		}
		stripped := *rep
		stripped.Recovery = nil
		row.Identical = string(recoveryReportBytes(&stripped)) == string(b.bytes)
		res.Rows[i] = row
	})
	return res
}

func recoveryRun(env *Env, pol accel.ShardPolicy, crashes []fault.Event, every int64) (*accel.Report, error) {
	o := env.NvWaOptions()
	if len(crashes) > 0 {
		o.Faults = &fault.Plan{Events: crashes}
	}
	rep, _, err := env.simulate(accel.ShardedOptions{
		Options: o, Shards: recoveryShards, Policy: pol, Workers: 1,
		CheckpointEvery: every,
	})
	return rep, err
}

func recoveryReportBytes(rep *accel.Report) []byte {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // Report is a plain value struct; cannot fail
	}
	return b
}

// Format renders the sweep table.
func (r RecoveryResult) Format() string {
	var b strings.Builder
	b.WriteString("Recovery — seeded chip-crash schedules across partition policies and checkpoint intervals\n")
	fmt.Fprintf(&b, "  %-12s %5s %8s %9s %9s %7s %8s %6s %10s  %s\n",
		"policy", "seed", "every", "base-cyc", "cycles", "crashes",
		"replayed", "ckpts", "ckpt-bytes", "status")
	for _, row := range r.Rows {
		status := "identical"
		if row.RunErr != "" {
			status = "error: " + row.RunErr
		} else if !row.Identical {
			status = "DIVERGED"
		}
		fmt.Fprintf(&b, "  %-12s %5d %8d %9d %9d %7d %7.1f%% %6d %10d  %s\n",
			row.Policy, row.Seed, row.Interval, row.BaselineCycles, row.Cycles,
			row.Recovery.Crashes, 100*row.ReplayOverhead(),
			row.Recovery.Checkpoints, row.Recovery.CheckpointBytes, status)
	}
	n := 0
	for _, row := range r.Rows {
		if row.OK() {
			n++
		}
	}
	fmt.Fprintf(&b, "  %d/%d crashed runs recovered to the byte-identical merged Report\n", n, len(r.Rows))
	return b.String()
}
