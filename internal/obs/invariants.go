package obs

import (
	"fmt"
	"strings"

	"nvwa/internal/core"
)

// Invariants is the scheduler invariant checker. The accelerator's
// event loop feeds it accounting records (hits pushed, assigned,
// dropped) and calls its Check* methods every allocation round and at
// drain; violations accumulate as human-readable messages that tests
// assert empty, turning silent scheduling bugs (lost hits, double-
// booked units, buffer overflow, time travel) into failures.
//
// A nil *Invariants is a no-op, so the checks cost one pointer test in
// production runs. Set Strict to panic on the first violation instead
// of accumulating — useful when bisecting with a debugger.
type Invariants struct {
	// Strict panics on the first violation instead of accumulating.
	Strict bool

	violations []string

	// hit-conservation ledger
	pushed, assigned, dropped int64

	// fault-extension ledger: the degraded-mode flows added by the
	// fault-injection layer. All stay zero on fault-free runs, so the
	// classic conservation equation is unchanged there.
	completed    int64 // extensions that finished on a healthy EU
	requeued     int64 // hits pulled back from a failed EU
	retried      int64 // re-dispatches that reached a healthy EU
	deadLettered int64 // hits abandoned after the retry budget
	shed         int64 // hits shed by backpressure before entering the SB

	lastNow  int64
	checked  int64 // number of Check* calls, for test sanity
	maxAccum int   // cap on stored violations (default 64)
}

// NewInvariants returns an accumulating invariant checker.
func NewInvariants() *Invariants { return &Invariants{} }

func (v *Invariants) violate(format string, args ...any) {
	if v == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if v.Strict {
		panic("obs: invariant violated: " + msg)
	}
	max := v.maxAccum
	if max == 0 {
		max = 64
	}
	if len(v.violations) < max {
		v.violations = append(v.violations, msg)
	}
}

// RecordPush accounts n hits entering the Coordinator's Store Buffer.
func (v *Invariants) RecordPush(n int) {
	if v != nil {
		v.pushed += int64(n)
	}
}

// RecordAssigned accounts n hits committed to extension units.
func (v *Invariants) RecordAssigned(n int) {
	if v != nil {
		v.assigned += int64(n)
	}
}

// RecordDropped accounts n hits intentionally dropped with a reason
// (e.g. provably unallocatable under the Exclusive strategy when their
// optimal class has no units). Drops without a reason are violations.
func (v *Invariants) RecordDropped(n int, reason string) {
	if v == nil {
		return
	}
	if reason == "" {
		v.violate("dropped %d hits without a reason", n)
	}
	v.dropped += int64(n)
}

// Pushed returns the hits accounted as pushed.
func (v *Invariants) Pushed() int64 {
	if v == nil {
		return 0
	}
	return v.pushed
}

// Assigned returns the hits accounted as assigned.
func (v *Invariants) Assigned() int64 {
	if v == nil {
		return 0
	}
	return v.assigned
}

// Dropped returns the hits accounted as dropped-with-reason.
func (v *Invariants) Dropped() int64 {
	if v == nil {
		return 0
	}
	return v.dropped
}

// RecordCompleted accounts n extensions finishing on a healthy unit.
func (v *Invariants) RecordCompleted(n int) {
	if v != nil {
		v.completed += int64(n)
	}
}

// RecordRequeued accounts n in-flight hits pulled back from a failed
// extension unit for re-dispatch.
func (v *Invariants) RecordRequeued(n int) {
	if v != nil {
		v.requeued += int64(n)
	}
}

// RecordRetried accounts n re-dispatches that reached a healthy unit.
func (v *Invariants) RecordRetried(n int) {
	if v != nil {
		v.retried += int64(n)
	}
}

// RecordDeadLettered accounts n hits abandoned to the dead-letter
// ledger after exhausting their retry budget.
func (v *Invariants) RecordDeadLettered(n int) {
	if v != nil {
		v.deadLettered += int64(n)
	}
}

// RecordShed accounts n hits shed by backpressure before they entered
// the Store Buffer. Shed hits never count as pushed; the extended
// conservation equation closes over offered = pushed + shed.
func (v *Invariants) RecordShed(n int) {
	if v != nil {
		v.shed += int64(n)
	}
}

// Completed returns the extensions accounted as completed.
func (v *Invariants) Completed() int64 {
	if v == nil {
		return 0
	}
	return v.completed
}

// Requeued returns the hits accounted as requeued off failed units.
func (v *Invariants) Requeued() int64 {
	if v == nil {
		return 0
	}
	return v.requeued
}

// Retried returns the re-dispatches accounted as retried.
func (v *Invariants) Retried() int64 {
	if v == nil {
		return 0
	}
	return v.retried
}

// DeadLettered returns the hits accounted as dead-lettered.
func (v *Invariants) DeadLettered() int64 {
	if v == nil {
		return 0
	}
	return v.deadLettered
}

// Shed returns the hits accounted as shed by backpressure.
func (v *Invariants) Shed() int64 {
	if v == nil {
		return 0
	}
	return v.shed
}

// CheckTime asserts the engine clock is monotone non-decreasing.
func (v *Invariants) CheckTime(now int64) {
	if v == nil {
		return
	}
	v.checked++
	if now < v.lastNow {
		v.violate("engine time ran backwards: %d after %d", now, v.lastNow)
	}
	v.lastNow = now
}

// CheckClamp flags a past-cycle scheduling clamp reported by
// sim.Engine: an event asked to fire delta cycles in the past. Latent
// negative-latency bugs in cost models surface here.
func (v *Invariants) CheckClamp(delta int64) {
	if v == nil {
		return
	}
	v.checked++
	v.violate("past-cycle schedule clamped to now (delta %d cycles)", delta)
}

// CheckBuffer asserts the HitsBuffer structural invariants: SB and PB
// occupancy never exceed the per-side depth, and the PB consumption
// offset stays within the PB.
func (v *Invariants) CheckBuffer(now int64, sbLen, pbLen, offset, depth int) {
	if v == nil {
		return
	}
	v.checked++
	if sbLen > depth {
		v.violate("cycle %d: SB occupancy %d exceeds depth %d", now, sbLen, depth)
	}
	if pbLen > depth {
		v.violate("cycle %d: PB occupancy %d exceeds depth %d", now, pbLen, depth)
	}
	if offset < 0 || offset > pbLen {
		v.violate("cycle %d: PB offset %d outside [0,%d]", now, offset, pbLen)
	}
}

// CheckRound asserts one allocation round's unit discipline: every
// assigned unit ID is unique within the round and was offered as idle.
func (v *Invariants) CheckRound(now int64, idleIDs, assignedIDs []int) {
	if v == nil {
		return
	}
	v.checked++
	idle := make(map[int]bool, len(idleIDs))
	for _, id := range idleIDs {
		idle[id] = true
	}
	seen := make(map[int]bool, len(assignedIDs))
	for _, id := range assignedIDs {
		if seen[id] {
			v.violate("cycle %d: unit %d double-allocated in one round", now, id)
		}
		seen[id] = true
		if !idle[id] {
			v.violate("cycle %d: unit %d assigned but not offered idle", now, id)
		}
	}
}

// CheckConservation asserts the hit-conservation ledger: every pushed
// hit is assigned, still pending in the buffers, or dropped with a
// reason. pending is the caller's current in-buffer hit count
// (SB occupancy + PB remaining).
func (v *Invariants) CheckConservation(now int64, pending int64, context string) {
	if v == nil {
		return
	}
	v.checked++
	if v.assigned+pending+v.dropped != v.pushed {
		v.violate("cycle %d (%s): hit conservation broken: pushed %d != assigned %d + pending %d + dropped %d",
			now, context, v.pushed, v.assigned, pending, v.dropped)
	}
}

// CheckFaultLedger asserts the degraded-mode accounting mid-run:
// retryPending is the caller's count of hits requeued off failed
// units but not yet re-dispatched or dead-lettered, and inFlight is
// the caller's count of extensions currently executing on units. Both
// must match the ledger residuals:
//
//	requeued - retried - deadLettered == retryPending
//	assigned + retried - completed - requeued == inFlight
func (v *Invariants) CheckFaultLedger(now int64, retryPending, inFlight int64) {
	if v == nil {
		return
	}
	v.checked++
	if got := v.requeued - v.retried - v.deadLettered; got != retryPending {
		v.violate("cycle %d: retry ledger broken: requeued %d - retried %d - deadLettered %d = %d, caller pending %d",
			now, v.requeued, v.retried, v.deadLettered, got, retryPending)
	}
	if got := v.assigned + v.retried - v.completed - v.requeued; got != inFlight {
		v.violate("cycle %d: in-flight ledger broken: assigned %d + retried %d - completed %d - requeued %d = %d, caller in-flight %d",
			now, v.assigned, v.retried, v.completed, v.requeued, got, inFlight)
	}
}

// CheckDrained asserts the end-of-run state: no hits pending anywhere,
// so pushed == assigned + dropped. A stranded sub-threshold Store
// Buffer fails here.
//
// When the fault-extension ledger was used (any of completed /
// requeued / retried / deadLettered non-zero), it additionally closes
// the extended conservation equation: every hit offered to the
// CheckTraceback validates one task's modeled traceback cost: the
// cycles charged must cover at least the alignment's path length. Any
// monotone path over a refSpan × readSpan alignment takes at least
// max(refSpan, readSpan) steps (diagonal moves advance both spans at
// once), so a model undercharging that bound is reading the wrong
// spans — exactly the seed-length-for-read-span bug this invariant
// exists to keep fixed.
func (v *Invariants) CheckTraceback(now, cycles int64, refSpan, readSpan int) {
	if v == nil {
		return
	}
	v.checked++
	pathMin := int64(refSpan)
	if int64(readSpan) > pathMin {
		pathMin = int64(readSpan)
	}
	if pathMin < 0 {
		v.violate("traceback at cycle %d: negative alignment span (ref=%d read=%d)",
			now, refSpan, readSpan)
		return
	}
	if cycles < pathMin {
		v.violate("traceback at cycle %d: modeled %d cycles < alignment path length %d (ref=%d read=%d)",
			now, cycles, pathMin, refSpan, readSpan)
	}
}

// Coordinator must terminate as completed, dead-lettered, dropped, or
// shed — offered = pushed + shed and pushed == completed +
// deadLettered + dropped — with zero retry-pending and in-flight
// residuals.
func (v *Invariants) CheckDrained(now int64, sbLen, pbRemaining, blocked int) {
	if v == nil {
		return
	}
	v.checked++
	if sbLen != 0 || pbRemaining != 0 || blocked != 0 {
		v.violate("cycle %d: drain incomplete: SB=%d PB=%d blocked SUs=%d", now, sbLen, pbRemaining, blocked)
	}
	v.CheckConservation(now, int64(sbLen+pbRemaining), "drain")
	if v.completed != 0 || v.requeued != 0 || v.retried != 0 || v.deadLettered != 0 {
		v.CheckFaultLedger(now, 0, 0)
		if v.completed+v.deadLettered+v.dropped != v.pushed {
			v.violate("cycle %d: terminal conservation broken: pushed %d != completed %d + deadLettered %d + dropped %d (shed %d held out of SB)",
				now, v.pushed, v.completed, v.deadLettered, v.dropped, v.shed)
		}
	}
}

// SnapshotWindow copies an allocation window so CheckWindowUnchanged
// can verify the Allocator honoured HitsBuffer.Window's read-only
// contract (the window aliases the Processing Buffer; mutating it
// would corrupt the Commit compaction).
func (v *Invariants) SnapshotWindow(w []core.Hit) []core.Hit {
	if v == nil {
		return nil
	}
	return append([]core.Hit(nil), w...)
}

// CheckWindowUnchanged compares the live window against its snapshot.
func (v *Invariants) CheckWindowUnchanged(now int64, before, after []core.Hit) {
	if v == nil {
		return
	}
	v.checked++
	if len(before) != len(after) {
		v.violate("cycle %d: allocation window length changed %d -> %d", now, len(before), len(after))
		return
	}
	for i := range before {
		if before[i] != after[i] {
			v.violate("cycle %d: allocation window entry %d mutated during Allocate: %+v -> %+v",
				now, i, before[i], after[i])
			return
		}
	}
}

// Checks returns how many Check* calls ran (tests use it to assert the
// checker was actually exercised).
func (v *Invariants) Checks() int64 {
	if v == nil {
		return 0
	}
	return v.checked
}

// Violations returns the accumulated violation messages.
func (v *Invariants) Violations() []string {
	if v == nil {
		return nil
	}
	return v.violations
}

// Err returns nil when no invariant was violated, else an error
// listing every violation.
func (v *Invariants) Err() error {
	if v == nil || len(v.violations) == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d scheduler invariant violation(s):\n  %s",
		len(v.violations), strings.Join(v.violations, "\n  "))
}
