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
// schedules to sweep, which Hits Allocator strategies to sweep them
// across, the fault-mix template each seed instantiates, and how much
// slack the watchdog grants a degraded run over its fault-free
// baseline before diagnosing a hang.
type ChaosConfig struct {
	// Seeds is the number of generated fault schedules per strategy.
	Seeds int
	// Strategies lists the allocator variants under test (default: all
	// four — Grouped, Exclusive, Shared, FIFO).
	Strategies []coordinator.Strategy
	// Template is the fault mix each schedule draws from; its Seed
	// field is overridden per row, and a zero Horizon auto-scales to
	// each strategy's fault-free makespan (so faults actually land
	// inside the run regardless of workload size). Zero value means
	// fault.DefaultSpec with an auto-scaled horizon.
	Template fault.Spec
	// BudgetFactor scales each strategy's fault-free makespan into the
	// watchdog cycle budget (default 20x). A degraded run exceeding the
	// budget is a diagnosed failure, never a hang.
	BudgetFactor int64
}

// DefaultChaosConfig returns the smoke-level sweep: four seeds across
// all four allocator strategies under the default mixed-fault template.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seeds: 4,
		Strategies: []coordinator.Strategy{
			coordinator.Grouped, coordinator.Exclusive,
			coordinator.Shared, coordinator.FIFO,
		},
		Template:     chaosTemplate(0),
		BudgetFactor: 20,
	}
}

// chaosTemplate is fault.DefaultSpec with the horizon left open for
// per-strategy auto-scaling.
func chaosTemplate(seed int64) fault.Spec {
	sp := fault.DefaultSpec(seed)
	sp.Horizon = 0
	return sp
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seeds <= 0 {
		c.Seeds = 4
	}
	if len(c.Strategies) == 0 {
		c.Strategies = DefaultChaosConfig().Strategies
	}
	zero := fault.Spec{}
	if c.Template == zero {
		c.Template = chaosTemplate(0)
	}
	if c.BudgetFactor <= 0 {
		c.BudgetFactor = 20
	}
	return c
}

// ChaosRow is one seeded degraded run.
type ChaosRow struct {
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
			return fmt.Errorf("chaos: alloc=%s seed=%d: watchdog: %s", row.Strategy, row.Seed, row.RunErr)
		}
		if row.Violation != "" {
			return fmt.Errorf("chaos: alloc=%s seed=%d: %s", row.Strategy, row.Seed, row.Violation)
		}
	}
	return nil
}

// Chaos sweeps seeded fault schedules across allocator strategies on
// the workload. Each row builds a private system with the schedule's
// fault plan, the invariant checker, and a watchdog budgeted from the
// strategy's fault-free baseline, then records the degradation
// accounting. Rows fan across the runner's worker pool; collection
// order is program order, so output is deterministic for any Runner.
func Chaos(env *Env, cfg ChaosConfig, r *Runner) ChaosResult {
	cfg = cfg.withDefaults()

	// Fault-free baselines, one per strategy, set the watchdog budgets.
	baselines := make([]int64, len(cfg.Strategies))
	r.Map(len(cfg.Strategies), func(i int) {
		o := env.NvWaOptions()
		o.AllocStrategy = cfg.Strategies[i]
		baselines[i] = env.runWith(o, r).Cycles
	})

	res := ChaosResult{Rows: make([]ChaosRow, len(cfg.Strategies)*cfg.Seeds)}
	r.Map(len(res.Rows), func(i int) {
		si, ki := i/cfg.Seeds, i%cfg.Seeds
		spec := cfg.Template
		spec.Seed = cfg.Template.Seed + int64(ki)
		res.Rows[i] = chaosRun(env, cfg.Strategies[si], spec, baselines[si], cfg.BudgetFactor, r)
	})
	return res
}

// chaosRun executes one seeded degraded run and audits it. Under a
// sharded runner the fault schedule is generated over the aggregate
// machine shape (S×NumSUs, S×TotalEUs) and partitioned per shard with
// unit-id remapping inside the scale-out engine, so chaos sweeps
// compose with sharding; the merged fault ledger is audited with the
// same terminal-conservation check.
func chaosRun(env *Env, strat coordinator.Strategy, spec fault.Spec, baseline, factor int64, r *Runner) ChaosRow {
	o := env.NvWaOptions()
	o.AllocStrategy = strat
	if spec.Horizon <= 0 {
		// Auto-scale: draw fault cycles from the strategy's fault-free
		// makespan so the schedule exercises the run instead of landing
		// after it.
		spec.Horizon = max(baseline, 1000)
	}
	shards := r.Shards()
	plan := spec.Generate(o.Config.NumSUs*shards, o.Config.TotalEUs()*shards)
	budget := baseline * factor
	if budget < 1_000_000 {
		budget = 1_000_000
	}
	ob := obs.NewInvariantsOnly()
	o.Obs = ob
	o.Faults = plan
	o.Watchdog = &sim.Watchdog{MaxCycles: budget}

	row := ChaosRow{
		Strategy:       strat,
		Seed:           spec.Seed,
		PlanEvents:     plan.Len(),
		BaselineCycles: baseline,
		Budget:         budget,
	}
	// Rows already fan across the runner's worker pool, so each row's
	// shards run on a single worker; the merged Report is invariant to
	// that choice.
	rep, _, runErr := env.simulate(accel.ShardedOptions{
		Options: o, Shards: shards, Policy: r.ShardPolicy(), Workers: 1,
	})
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
	for _, row := range r.Rows {
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
