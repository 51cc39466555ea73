package experiments

import (
	"reflect"
	"strings"
	"testing"

	"nvwa/internal/fault"
)

// TestRecoverySmoke is the crash-recovery tentpole property at the
// experiment layer: every seeded chip-crash schedule, across all three
// partition policies and both checkpoint modes, recovers to the merged
// Report byte-identical to the crash-free run, with bounded replay.
func TestRecoverySmoke(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	res := Recovery(env, NewRunner(0))
	if err := res.Err(); err != nil {
		t.Fatalf("recovery sweep failed: %v\n%s", err, res.Format())
	}
	if want := len(recoveryPolicies) * len(recoveryIntervals) * recoverySeeds; len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	crashed := 0
	for _, row := range res.Rows {
		if row.Cycles != row.BaselineCycles {
			t.Errorf("policy=%s seed=%d every=%d: makespan %d != baseline %d",
				row.Policy, row.Seed, row.Interval, row.Cycles, row.BaselineCycles)
		}
		crashed += row.Recovery.Crashes
		if row.Interval > 0 && row.Recovery.Checkpoints == 0 {
			t.Errorf("policy=%s seed=%d every=%d: checkpointing enabled but none taken",
				row.Policy, row.Seed, row.Interval)
		}
		// Replay is bounded: each crash re-simulates at most the span
		// back to cycle 0, so the total is at most crashes × baseline.
		if max := int64(recoveryCrashes) * row.BaselineCycles; row.Recovery.ReplayedCycles > max {
			t.Errorf("policy=%s seed=%d every=%d: replayed %d cycles > bound %d",
				row.Policy, row.Seed, row.Interval, row.Recovery.ReplayedCycles, max)
		}
	}
	if crashed == 0 {
		t.Error("no crashes landed across the whole sweep — harness inert")
	}
	out := res.Format()
	for _, want := range []string{"contiguous", "balanced", "byte-identical"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// TestRecoveryDeterministicAcrossRunners pins the sweep's determinism:
// the serial policy and the parallel pool produce identical rows.
func TestRecoveryDeterministicAcrossRunners(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	serial := Recovery(env, NewRunner(1))
	parallel := Recovery(env, NewRunner(0))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("recovery rows differ between runners:\nserial:\n%s\nparallel:\n%s",
			serial.Format(), parallel.Format())
	}
}

// TestCrashScheduleGenerator pins the private crash-schedule stream:
// deterministic per seed, distinct (shard, cycle) pairs, cycles >= 1,
// shards in range.
func TestCrashScheduleGenerator(t *testing.T) {
	t.Parallel()
	a := crashSchedule(3, 8, 4, 10000)
	b := crashSchedule(3, 8, 4, 10000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("crash schedule not deterministic per seed")
	}
	seen := map[[2]int64]bool{}
	for _, ev := range a {
		if ev.Kind != fault.ChipCrash {
			t.Fatalf("wrong kind %v", ev.Kind)
		}
		if ev.Cycle < 1 || ev.Cycle >= 10000 {
			t.Errorf("cycle %d out of range", ev.Cycle)
		}
		if ev.Unit < 0 || ev.Unit >= 4 {
			t.Errorf("unit %d out of range", ev.Unit)
		}
		k := [2]int64{int64(ev.Unit), ev.Cycle}
		if seen[k] {
			t.Errorf("duplicate crash %v", ev)
		}
		seen[k] = true
	}
	if c := crashSchedule(5, 8, 4, 10000); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same schedule")
	}
}
