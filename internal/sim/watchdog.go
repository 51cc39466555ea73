package sim

import "fmt"

// Watchdog bounds a simulation run so that livelock and runaway
// schedules surface as diagnosed errors instead of hangs. It is the
// last line of defense under fault injection: degradation policies
// are designed to always terminate, and the watchdog proves it per
// run.
//
// A Watchdog is read-only during RunBounded (budgets are consulted,
// never mutated), so one Watchdog value may be shared across
// concurrently running engines — the sharded scale-out path hands the
// same Watchdog to every shard.
type Watchdog struct {
	// MaxCycles aborts the run before firing any event scheduled
	// beyond this cycle. 0 disables the cycle budget.
	MaxCycles int64
	// MaxEventsPerCycle aborts when more than this many events fire
	// at a single cycle without time advancing — a same-cycle
	// rescheduling livelock. 0 uses DefaultMaxEventsPerCycle.
	MaxEventsPerCycle int64
	// MaxEvents aborts after this many total events. 0 disables.
	MaxEvents int64
}

// DefaultMaxEventsPerCycle is the no-progress threshold used when
// Watchdog.MaxEventsPerCycle is 0. It is far above anything a healthy
// round can enqueue at one cycle (every SU + EU + round completion is
// a few hundred events), yet cheap to hit for a genuine livelock.
const DefaultMaxEventsPerCycle = 1 << 20

// GuardState carries the watchdog's progress counters across bounded
// runs. A preempted simulation steps the engine in slices; budgets
// must accumulate over the whole run, not reset per slice, or a
// stepped run would survive a livelock that a continuous run
// diagnoses. The zero value is ready to use.
type GuardState struct {
	cycle   int64
	atCycle int64
	total   int64
}

// RunBounded processes events under optional cycle, fired-count and
// watchdog bounds. Per iteration, in order: an empty heap returns
// nil; if maxFired >= 0 and the engine has fired that many events it
// returns nil (the replay stop used by checkpoint restore — checked
// before the watchdog so replaying up to an aborted run's checkpoint
// does not re-trip the abort); if limitCycle >= 0 and the next event
// is beyond it, it returns nil with the event still queued; then the
// watchdog budgets are enforced against st (nil w skips them); then
// the event fires. Watchdog errors carry a bounded pending-heap
// summary.
func (e *Engine) RunBounded(limitCycle, maxFired int64, w *Watchdog, st *GuardState) error {
	perCycle := int64(0)
	if w != nil {
		perCycle = w.MaxEventsPerCycle
		if perCycle <= 0 {
			perCycle = DefaultMaxEventsPerCycle
		}
	}
	for e.cal.len() > 0 {
		if maxFired >= 0 && e.fired >= maxFired {
			return nil
		}
		next := e.cal.peekAt()
		if limitCycle >= 0 && next > limitCycle {
			return nil
		}
		if w != nil {
			if w.MaxCycles > 0 && next > w.MaxCycles {
				return fmt.Errorf(
					"sim: watchdog: cycle budget %d exceeded (next event at cycle %d, %d events pending)%s",
					w.MaxCycles, next, e.cal.len(), e.pendingNote())
			}
			if next != st.cycle {
				st.cycle = next
				st.atCycle = 0
			}
			st.atCycle++
			if st.atCycle > perCycle {
				return fmt.Errorf(
					"sim: watchdog: no progress: %d events fired at cycle %d without advancing time (livelock)%s",
					st.atCycle, st.cycle, e.pendingNote())
			}
			st.total++
			if w.MaxEvents > 0 && st.total > w.MaxEvents {
				return fmt.Errorf(
					"sim: watchdog: event budget %d exceeded at cycle %d (%d events pending)%s",
					w.MaxEvents, st.cycle, e.cal.len(), e.pendingNote())
			}
		}
		e.fire(e.cal.pop())
	}
	return nil
}
