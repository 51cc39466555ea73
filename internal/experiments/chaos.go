package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/accel"
	"nvwa/internal/coordinator"
	"nvwa/internal/fault"
	"nvwa/internal/obs"
	"nvwa/internal/sim"
)

// ChaosConfig parameterises the chaos harness: how many seeded fault
// schedules to sweep per (machine width, allocator strategy) cell, and
// the seed of the first. Every schedule instantiates fault.DefaultSpec
// with its horizon auto-scaled to the cell's fault-free makespan, so
// faults land inside the run regardless of workload size.
type ChaosConfig struct {
	// Seeds is the number of generated fault schedules per cell.
	Seeds int
	// Seed seeds the first schedule; schedule k draws from Seed+k.
	Seed int64
}

// chaosStrategies are the allocator variants under test: all four.
var chaosStrategies = []coordinator.Strategy{
	coordinator.Grouped, coordinator.Exclusive,
	coordinator.Shared, coordinator.FIFO,
}

// chaosShards are the machine widths swept, in chips. At S > 1 each
// schedule is generated over the aggregate S-chip machine and
// partitioned per shard (contiguous read partitioning).
var chaosShards = []int{1, 2}

// chaosBudgetFactor scales each cell's fault-free makespan into the
// watchdog cycle budget. A degraded run exceeding the budget is a
// diagnosed failure, never a hang.
const chaosBudgetFactor = 20

// ChaosRow is one seeded degraded run.
type ChaosRow struct {
	// Shards is the machine width in chips.
	Shards int
	// Strategy is the Hits Allocator variant under test.
	Strategy coordinator.Strategy
	// Seed generated the fault schedule.
	Seed int64
	// PlanEvents is the schedule length.
	PlanEvents int
	// BaselineCycles is the strategy's fault-free makespan; Budget is
	// the watchdog allowance derived from it; Cycles is the degraded
	// makespan.
	BaselineCycles, Budget, Cycles int64
	// Faults is the run's fault-injection accounting.
	Faults fault.Summary
	// Violation is the first scheduler-invariant or conservation
	// violation, empty when the run was sound.
	Violation string
	// RunErr is the watchdog diagnosis, empty when the run terminated
	// inside its budget.
	RunErr string
}

// OK reports whether the row terminated soundly.
func (r ChaosRow) OK() bool { return r.Violation == "" && r.RunErr == "" }

// ChaosResult is the chaos sweep outcome: every row is a seeded fault
// schedule run to completion under watchdog guard with the scheduler
// invariant checker attached.
type ChaosResult struct {
	Rows []ChaosRow
}

// Err returns the first failing row's diagnosis, or nil when every
// seeded schedule terminated with conservation intact.
func (r ChaosResult) Err() error {
	for _, row := range r.Rows {
		if row.RunErr != "" {
			return fmt.Errorf("chaos: shards=%d alloc=%s seed=%d: watchdog: %s", row.Shards, row.Strategy, row.Seed, row.RunErr)
		}
		if row.Violation != "" {
			return fmt.Errorf("chaos: shards=%d alloc=%s seed=%d: %s", row.Shards, row.Strategy, row.Seed, row.Violation)
		}
	}
	return nil
}

// Chaos sweeps seeded fault schedules across machine widths and
// allocator strategies on the workload. Each row builds a private
// system with the schedule's fault plan, the invariant checker, and a
// watchdog budgeted from the (width, strategy) fault-free baseline,
// then records the degradation accounting. Rows fan across the
// runner's worker pool; collection order is program order, so output
// is deterministic for any Runner.
func Chaos(env *Env, cfg ChaosConfig, r *Runner) ChaosResult {
	nst := len(chaosStrategies)

	// Fault-free baselines, one per (width, strategy), set the watchdog
	// budgets.
	baselines := make([]int64, len(chaosShards)*nst)
	r.Map(len(baselines), func(i int) {
		o := env.NvWaOptions()
		o.AllocStrategy = chaosStrategies[i%nst]
		rep, _, err := env.simulate(accel.ShardedOptions{Options: o, Shards: chaosShards[i/nst], Workers: 1})
		if err != nil {
			panic(err)
		}
		baselines[i] = rep.Cycles
	})

	res := ChaosResult{Rows: make([]ChaosRow, len(baselines)*cfg.Seeds)}
	r.Map(len(res.Rows), func(i int) {
		bi, ki := i/cfg.Seeds, i%cfg.Seeds
		res.Rows[i] = chaosRun(env, chaosShards[bi/nst], chaosStrategies[bi%nst], cfg.Seed+int64(ki), baselines[bi])
	})
	return res
}

// chaosRun executes one seeded degraded run and audits it. On more
// than one chip the fault schedule is generated over the aggregate
// machine shape (S×NumSUs, S×TotalEUs) and partitioned per shard with
// unit-id remapping inside the scale-out engine; the merged fault
// ledger is audited with the same terminal-conservation check.
func chaosRun(env *Env, shards int, strat coordinator.Strategy, seed, baseline int64) ChaosRow {
	o := env.NvWaOptions()
	o.AllocStrategy = strat
	// Draw fault cycles from the strategy's fault-free makespan so the
	// schedule exercises the run instead of landing after it.
	spec := fault.DefaultSpec(seed)
	spec.Horizon = max(baseline, 1000)
	plan := spec.Generate(o.Config.NumSUs*shards, o.Config.TotalEUs()*shards)
	budget := baseline * chaosBudgetFactor
	if budget < 1_000_000 {
		budget = 1_000_000
	}
	ob := obs.NewInvariantsOnly()
	o.Obs = ob
	o.Faults = plan
	o.Watchdog = &sim.Watchdog{MaxCycles: budget}

	row := ChaosRow{
		Shards:         shards,
		Strategy:       strat,
		Seed:           spec.Seed,
		PlanEvents:     plan.Len(),
		BaselineCycles: baseline,
		Budget:         budget,
	}
	// Rows already fan across the runner's worker pool, so each row's
	// shards run on a single worker; the merged Report is invariant to
	// that choice.
	rep, _, runErr := env.simulate(accel.ShardedOptions{Options: o, Shards: shards, Workers: 1})
	if rep == nil {
		row.RunErr = runErr.Error()
		return row
	}
	row.Cycles = rep.Cycles
	if rep.Faults != nil {
		row.Faults = *rep.Faults
	}
	if runErr != nil {
		row.RunErr = runErr.Error()
		return row
	}
	if err := ob.Inv.Err(); err != nil {
		row.Violation = err.Error()
		return row
	}
	// Terminal conservation over the fault ledger: every hit pulled
	// back from a failed EU was either re-dispatched to a healthy unit
	// or dead-lettered after the retry budget — nothing in between.
	if f := row.Faults; f.Requeued != f.Retried+f.DeadLettered {
		row.Violation = fmt.Sprintf(
			"fault ledger leak: requeued %d != retried %d + dead-lettered %d",
			f.Requeued, f.Retried, f.DeadLettered)
	}
	return row
}

// Format renders the sweep table.
func (r ChaosResult) Format() string {
	var b strings.Builder
	b.WriteString("Chaos — seeded fault schedules across Hits Allocator strategies\n")
	fmt.Fprintf(&b, "  %-10s %5s %6s %9s %9s %6s %4s/%-4s %4s %4s %4s %4s  %s\n",
		"alloc", "seed", "events", "base-cyc", "cycles", "slow",
		"inj", "abs", "rq", "rt", "dl", "shed", "status")
	for i, row := range r.Rows {
		if i == 0 || row.Shards != r.Rows[i-1].Shards {
			fmt.Fprintf(&b, "  shards=%d\n", row.Shards)
		}
		slow := 0.0
		if row.BaselineCycles > 0 {
			slow = float64(row.Cycles) / float64(row.BaselineCycles)
		}
		status := "ok"
		if row.RunErr != "" {
			status = "watchdog: " + row.RunErr
		} else if row.Violation != "" {
			status = "violation: " + row.Violation
		}
		f := row.Faults
		fmt.Fprintf(&b, "  %-10s %5d %6d %9d %9d %5.2fx %4d/%-4d %4d %4d %4d %4d  %s\n",
			row.Strategy, row.Seed, row.PlanEvents, row.BaselineCycles, row.Cycles,
			slow, f.Injected, f.Absorbed, f.Requeued, f.Retried, f.DeadLettered, f.Shed, status)
	}
	n := 0
	for _, row := range r.Rows {
		if row.OK() {
			n++
		}
	}
	fmt.Fprintf(&b, "  %d/%d runs terminated with conservation intact\n", n, len(r.Rows))
	return b.String()
}
