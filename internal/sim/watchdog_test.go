package sim

import (
	"strings"
	"testing"
)

func TestRunGuardedNilIsRun(t *testing.T) {
	t.Parallel()
	var e Engine
	fired := 0
	e.At(10, fn(func() { fired++ }))
	e.At(20, fn(func() { fired++ }))
	end, err := runGuarded(&e, nil)
	if err != nil || end != 20 || fired != 2 {
		t.Fatalf("nil watchdog: end=%d err=%v fired=%d", end, err, fired)
	}
}

func TestRunGuardedHealthyRunPasses(t *testing.T) {
	t.Parallel()
	var e Engine
	var fired int
	for i := int64(0); i < 100; i++ {
		e.At(i, fn(func() { fired++ }))
	}
	end, err := runGuarded(&e, &Watchdog{MaxCycles: 1000})
	if err != nil {
		t.Fatalf("healthy run tripped watchdog: %v", err)
	}
	if end != 99 || fired != 100 {
		t.Fatalf("end=%d fired=%d", end, fired)
	}
}

func TestRunGuardedCycleBudget(t *testing.T) {
	t.Parallel()
	var e Engine
	e.At(5, fn(func() {}))
	e.At(5000, fn(func() { t.Fatal("event beyond budget fired") }))
	end, err := runGuarded(&e, &Watchdog{MaxCycles: 100})
	if err == nil {
		t.Fatal("cycle budget not enforced")
	}
	if !strings.Contains(err.Error(), "cycle budget") {
		t.Fatalf("undiagnostic error: %v", err)
	}
	if end != 5 {
		t.Fatalf("stopped at %d, want 5", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
}

func TestRunGuardedLivelock(t *testing.T) {
	t.Parallel()
	var e Engine
	var respawn func()
	respawn = func() { e.At(e.Now(), fn(respawn)) } // classic same-cycle livelock
	e.At(7, fn(respawn))
	// Start the per-cycle counter 1,000 events short of the bound, so
	// the livelock trips it without firing a million events.
	st := GuardState{cycle: 7, atCycle: maxEventsPerCycle - 1000}
	err := e.RunBounded(-1, -1, &Watchdog{MaxCycles: 1000}, &st)
	if e.Fired() != 1000 {
		t.Errorf("fired %d events, want 1000 before the bound trips", e.Fired())
	}
	if err == nil {
		t.Fatal("livelock not detected")
	}
	if !strings.Contains(err.Error(), "livelock") || !strings.Contains(err.Error(), "cycle 7") {
		t.Fatalf("undiagnostic error: %v", err)
	}
}

func TestRunGuardedPerCycleCounterResets(t *testing.T) {
	t.Parallel()
	var e Engine
	// 50 events at each of two cycles, with the counter starting 60
	// short of the bound at cycle 1: must pass because the counter
	// resets when time advances.
	for i := 0; i < 50; i++ {
		e.At(1, fn(func() {}))
		e.At(2, fn(func() {}))
	}
	st := GuardState{cycle: 1, atCycle: maxEventsPerCycle - 60}
	if err := e.RunBounded(-1, -1, &Watchdog{}, &st); err != nil {
		t.Fatalf("per-cycle counter leaked across cycles: %v", err)
	}
}

// runGuarded runs e to completion under w with fresh progress
// counters, as accel's drain loop does, and returns the cycle reached.
func runGuarded(e *Engine, w *Watchdog) (int64, error) {
	var st GuardState
	err := e.RunBounded(-1, -1, w, &st)
	return e.Now(), err
}
