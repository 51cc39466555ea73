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

	ledger Ledger

	lastNow  int64
	checked  int64 // number of Check* calls, for test sanity
	maxAccum int   // cap on stored violations (default 64)

	// unitMarks is CheckRound's per-unit scratch, indexed by unit ID
	// and all zero between rounds.
	unitMarks []uint8
}

// Ledger is one invariant checker's conservation counts. The first
// three close the classic hit-conservation equation; the rest are the
// degraded-mode flows added by the fault-injection layer, all zero on
// fault-free runs, so the classic equation is unchanged there.
type Ledger struct {
	Pushed, Assigned, Dropped int64
	Completed                 int64 // extensions that finished on a healthy EU
	Requeued                  int64 // hits pulled back from a failed EU
	Retried                   int64 // re-dispatches that reached a healthy EU
	DeadLettered              int64 // hits abandoned after the retry budget
	Shed                      int64 // hits shed by backpressure before entering the SB
}

// add sums o into l field by field.
func (l *Ledger) add(o Ledger) {
	l.Pushed += o.Pushed
	l.Assigned += o.Assigned
	l.Dropped += o.Dropped
	l.Completed += o.Completed
	l.Requeued += o.Requeued
	l.Retried += o.Retried
	l.DeadLettered += o.DeadLettered
	l.Shed += o.Shed
}

// Ledger returns the checker's conservation counts (zero for nil).
func (v *Invariants) Ledger() Ledger {
	if v == nil {
		return Ledger{}
	}
	return v.ledger
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
		v.ledger.Pushed += int64(n)
	}
}

// RecordAssigned accounts n hits committed to extension units.
func (v *Invariants) RecordAssigned(n int) {
	if v != nil {
		v.ledger.Assigned += int64(n)
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
	v.ledger.Dropped += int64(n)
}

// RecordCompleted accounts n extensions finishing on a healthy unit.
func (v *Invariants) RecordCompleted(n int) {
	if v != nil {
		v.ledger.Completed += int64(n)
	}
}

// RecordRequeued accounts n in-flight hits pulled back from a failed
// extension unit for re-dispatch.
func (v *Invariants) RecordRequeued(n int) {
	if v != nil {
		v.ledger.Requeued += int64(n)
	}
}

// RecordRetried accounts n re-dispatches that reached a healthy unit.
func (v *Invariants) RecordRetried(n int) {
	if v != nil {
		v.ledger.Retried += int64(n)
	}
}

// RecordDeadLettered accounts n hits abandoned to the dead-letter
// ledger after exhausting their retry budget.
func (v *Invariants) RecordDeadLettered(n int) {
	if v != nil {
		v.ledger.DeadLettered += int64(n)
	}
}

// RecordShed accounts n hits shed by backpressure before they entered
// the Store Buffer. Shed hits never count as pushed; the extended
// conservation equation closes over offered = pushed + shed.
func (v *Invariants) RecordShed(n int) {
	if v != nil {
		v.ledger.Shed += int64(n)
	}
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
// Unit IDs are non-negative; a negative assigned ID counts as not
// offered. The per-unit marks are cleared before returning, so a round
// allocates only when it names a unit ID above every earlier one.
func (v *Invariants) CheckRound(now int64, idleIDs, assignedIDs []int) {
	if v == nil {
		return
	}
	v.checked++
	for _, id := range idleIDs {
		if id >= 0 {
			v.mark(id, markIdle)
		}
	}
	for _, id := range assignedIDs {
		if id < 0 {
			v.violate("cycle %d: unit %d assigned but not offered idle", now, id)
			continue
		}
		m := v.mark(id, markAssigned)
		if m&markAssigned != 0 {
			v.violate("cycle %d: unit %d double-allocated in one round", now, id)
		}
		if m&markIdle == 0 {
			v.violate("cycle %d: unit %d assigned but not offered idle", now, id)
		}
	}
	for _, id := range idleIDs {
		if id >= 0 {
			v.unitMarks[id] = 0
		}
	}
	for _, id := range assignedIDs {
		if id >= 0 {
			v.unitMarks[id] = 0
		}
	}
}

// Unit marks of CheckRound's scratch.
const (
	markIdle uint8 = 1 << iota
	markAssigned
)

// mark sets bit on unit id's mark, growing the scratch as needed, and
// returns the mark as it was.
func (v *Invariants) mark(id int, bit uint8) uint8 {
	if id >= len(v.unitMarks) {
		v.unitMarks = append(v.unitMarks, make([]uint8, id+1-len(v.unitMarks))...)
	}
	m := v.unitMarks[id]
	v.unitMarks[id] = m | bit
	return m
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
	if l := v.ledger; l.Assigned+pending+l.Dropped != l.Pushed {
		v.violate("cycle %d (%s): hit conservation broken: pushed %d != assigned %d + pending %d + dropped %d",
			now, context, l.Pushed, l.Assigned, pending, l.Dropped)
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
	l := v.ledger
	if got := l.Requeued - l.Retried - l.DeadLettered; got != retryPending {
		v.violate("cycle %d: retry ledger broken: requeued %d - retried %d - deadLettered %d = %d, caller pending %d",
			now, l.Requeued, l.Retried, l.DeadLettered, got, retryPending)
	}
	if got := l.Assigned + l.Retried - l.Completed - l.Requeued; got != inFlight {
		v.violate("cycle %d: in-flight ledger broken: assigned %d + retried %d - completed %d - requeued %d = %d, caller in-flight %d",
			now, l.Assigned, l.Retried, l.Completed, l.Requeued, got, inFlight)
	}
}

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

// CheckDrained asserts the end-of-run state: no hits pending anywhere,
// so pushed == assigned + dropped. A stranded sub-threshold Store
// Buffer fails here.
//
// When the fault-extension ledger was used (any of completed /
// requeued / retried / deadLettered non-zero), it additionally closes
// the extended conservation equation: every hit offered to the
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
	if l := v.ledger; l.Completed != 0 || l.Requeued != 0 || l.Retried != 0 || l.DeadLettered != 0 {
		v.CheckFaultLedger(now, 0, 0)
		if l.Completed+l.DeadLettered+l.Dropped != l.Pushed {
			v.violate("cycle %d: terminal conservation broken: pushed %d != completed %d + deadLettered %d + dropped %d (shed %d held out of SB)",
				now, l.Pushed, l.Completed, l.DeadLettered, l.Dropped, l.Shed)
		}
	}
}

// WindowDigest is an order-sensitive digest of an allocation window's
// hits, taken before and after Allocate so CheckWindowUnchanged can
// verify the Allocator honoured HitsBuffer.Window's read-only contract
// (the window aliases the Processing Buffer; mutating it would corrupt
// the Commit compaction) without copying the window. The zero value is
// the empty window; Add folds the next hit.
type WindowDigest struct {
	n   int
	sum uint64
}

// Add folds h: each field times its own odd constant, summed, then one
// FNV-1a step of the running sum. An odd multiplier is invertible
// modulo 2^64 and the step is a bijection of the running sum, so a
// single changed field always changes the digest. The field products
// are independent, so a hit costs one dependent multiply, and h
// travels in registers.
func (d *WindowDigest) Add(h core.Hit) {
	rev := uint64(0)
	if h.Rev {
		rev = 1
	}
	x := uint64(h.ReadIdx)*0x9e3779b185ebca87 +
		uint64(h.HitIdx)*0xc2b2ae3d27d4eb4f +
		rev*0x165667b19e3779f9 +
		uint64(h.ReadBeg)*0x85ebca77c2b2ae63 +
		uint64(h.ReadEnd)*0x27d4eb2f165667c5 +
		uint64(h.RefPos)*0xff51afd7ed558ccd +
		uint64(h.ReadLen)*0xc4ceb9fe1a85ec53 +
		uint64(h.SeedScore)*0x100000001b3
	d.sum = (d.sum ^ x) * 0x100000001b3
	d.n++
}

// CheckWindowUnchanged compares the window's digest after Allocate
// against the one taken before it.
func (v *Invariants) CheckWindowUnchanged(now int64, before, after WindowDigest) {
	if v == nil {
		return
	}
	v.checked++
	if before.n != after.n {
		v.violate("cycle %d: allocation window length changed %d -> %d", now, before.n, after.n)
		return
	}
	if before.sum != after.sum {
		v.violate("cycle %d: allocation window of %d hits mutated during Allocate (digest %#x -> %#x; the digest does not name the entry)",
			now, before.n, before.sum, after.sum)
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

// Err returns nil when no invariant was violated, else an error
// listing every violation.
func (v *Invariants) Err() error {
	if v == nil || len(v.violations) == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d scheduler invariant violation(s):\n  %s",
		len(v.violations), strings.Join(v.violations, "\n  "))
}
