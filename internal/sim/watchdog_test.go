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
	_, err := runGuarded(&e, &Watchdog{MaxCycles: 1000, MaxEventsPerCycle: 1000})
	if err == nil {
		t.Fatal("livelock not detected")
	}
	if !strings.Contains(err.Error(), "livelock") || !strings.Contains(err.Error(), "cycle 7") {
		t.Fatalf("undiagnostic error: %v", err)
	}
}

func TestRunGuardedEventBudget(t *testing.T) {
	t.Parallel()
	var e Engine
	var tick func()
	n := int64(0)
	tick = func() { n++; e.At(e.Now()+1, fn(tick)) } // unbounded but always progressing
	e.At(0, fn(tick))
	_, err := runGuarded(&e, &Watchdog{MaxEvents: 500})
	if err == nil {
		t.Fatal("event budget not enforced")
	}
	if !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("undiagnostic error: %v", err)
	}
	if n > 501 {
		t.Fatalf("ran %d events past budget", n)
	}
}

func TestRunGuardedPerCycleCounterResets(t *testing.T) {
	t.Parallel()
	var e Engine
	// 50 events at each of two cycles with a tight per-cycle limit of
	// 60: must pass because the counter resets when time advances.
	for i := 0; i < 50; i++ {
		e.At(1, fn(func() {}))
		e.At(2, fn(func() {}))
	}
	if _, err := runGuarded(&e, &Watchdog{MaxEventsPerCycle: 60}); err != nil {
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
