package experiments

import (
	"reflect"
	"strings"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/coordinator"
	"nvwa/internal/fault"
	"nvwa/internal/obs"
	"nvwa/internal/sim"
)

// TestChaosTerminatesWithConservation is the tentpole property: every
// seeded fault schedule, across all four Hits Allocator strategies,
// terminates inside its watchdog budget with the scheduler invariants
// and the fault-ledger conservation intact.
func TestChaosTerminatesWithConservation(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	cfg := ChaosConfig{Seeds: 2, Seed: 7}
	res := Chaos(env, cfg, NewRunner(0))
	if err := res.Err(); err != nil {
		t.Fatalf("chaos sweep failed: %v\n%s", err, res.Format())
	}
	if want := len(chaosShards) * len(chaosStrategies) * cfg.Seeds; len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	seen := map[coordinator.Strategy]bool{}
	injected := 0
	for _, row := range res.Rows {
		seen[row.Strategy] = true
		if row.Cycles <= 0 || row.Cycles > row.Budget {
			t.Errorf("alloc=%s seed=%d: cycles %d outside (0, budget %d]",
				row.Strategy, row.Seed, row.Cycles, row.Budget)
		}
		if row.PlanEvents == 0 {
			t.Errorf("alloc=%s seed=%d: empty generated plan", row.Strategy, row.Seed)
		}
		if f := row.Faults; f.Requeued != f.Retried+f.DeadLettered {
			t.Errorf("alloc=%s seed=%d: ledger leak: rq %d != rt %d + dl %d",
				row.Strategy, row.Seed, f.Requeued, f.Retried, f.DeadLettered)
		}
		injected += row.Faults.Injected
	}
	for _, st := range chaosStrategies {
		if !seen[st] {
			t.Errorf("strategy %s missing from sweep", st)
		}
	}
	if injected == 0 {
		t.Error("no faults injected across the whole sweep — harness inert")
	}
	out := res.Format()
	for _, want := range []string{"grouped", "fifo", "conservation intact"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// TestChaosDeterministicAcrossRunners pins the sweep's determinism:
// the serial policy and the parallel pool produce identical rows.
func TestChaosDeterministicAcrossRunners(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	cfg := ChaosConfig{Seeds: 1, Seed: 11}
	serial := Chaos(env, cfg, NewRunner(1))
	parallel := Chaos(env, cfg, NewRunner(0))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("chaos rows differ between runners:\nserial:\n%s\nparallel:\n%s",
			serial.Format(), parallel.Format())
	}
}

// TestChaosReplayEqualsLive: a fault plan never changes a read's
// record, so chaos rows replayed over the Env's Memo equal the rows of
// the same workload with no Memo, baselines and degraded runs alike.
func TestChaosReplayEqualsLive(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	cfg := ChaosConfig{Seeds: 2, Seed: 3}
	replayed := Chaos(env, cfg, NewRunner(0))
	live := Chaos(liveEnv(env), cfg, NewRunner(0))
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("chaos rows differ with the Memo attached:\nreplayed:\n%s\nlive:\n%s",
			replayed.Format(), live.Format())
	}
}

// TestChaosNilPlanByteIdentical is the zero-overhead differential,
// quantified over every allocator strategy: a system carrying an empty
// fault plan and a watchdog produces a Report byte-identical to the
// plain system's, except for the (empty) FaultSummary itself.
func TestChaosNilPlanByteIdentical(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	for _, st := range chaosStrategies {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			t.Parallel()
			o := env.NvWaOptions()
			o.AllocStrategy = st
			base := mustRun(t, env, o)

			o.Faults = &fault.Plan{}
			o.Watchdog = &sim.Watchdog{MaxCycles: 1 << 40}
			guarded := mustRun(t, env, o)

			if guarded.Faults == nil || guarded.Faults.Planned != 0 {
				t.Fatalf("empty plan summary wrong: %+v", guarded.Faults)
			}
			if base.Faults != nil {
				t.Fatalf("plain run unexpectedly carries a fault summary")
			}
			guarded.Faults = nil
			if !reflect.DeepEqual(base, guarded) {
				t.Errorf("alloc=%s: empty fault plan perturbed the report", st)
			}
		})
	}
}

func mustRun(t *testing.T, env *Env, o accel.Options) *accel.Report {
	t.Helper()
	ob := obs.NewInvariantsOnly()
	o.Obs = ob
	sys, err := accel.New(env.Aligner, o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunChecked(env.Reads)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
	return rep
}
