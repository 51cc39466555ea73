package accel

import (
	"nvwa/internal/core"
	"nvwa/internal/eu"
	"nvwa/internal/extsched"
	"nvwa/internal/fault"
	"nvwa/internal/su"
)

// maxRetryAttempts bounds the Hits Allocator's re-dispatch loop for
// hits pulled back from failed EUs: after this many scheduling
// attempts a hit is moved to the dead-letter ledger, which is what
// guarantees termination even when every EU has failed.
const maxRetryAttempts = 5

// retryBackoffCap bounds the exponential backoff so late retries stay
// responsive relative to typical extension latencies.
const retryBackoffCap = 8192

// retryBackoff returns the exponential backoff (in cycles) before
// scheduling attempt n (1-based): 64, 128, 256, ... capped. Both
// sides of the shift are clamped: attempt <= 1 gets the base delay (a
// negative shift count panics at runtime), and any shift that could
// wrap int64 (or merely exceed the cap) returns the cap, so callers
// may pass any attempt count without overflow checks of their own.
func retryBackoff(attempt int) int64 {
	const base = int64(64)
	shift := attempt - 1
	if shift <= 0 {
		return base
	}
	// Shifts past 56 would wrap base (= 2^6) out of int64 before the
	// cap comparison could see it; everything that large caps anyway.
	if shift > 56 || base<<shift > retryBackoffCap {
		return retryBackoffCap
	}
	return base << shift
}

// faultState is the degradation-side runtime of one simulation under
// a fault plan. It exists only when Options.Faults is non-nil, so the
// nil-plan path pays exactly one pointer test per hook and schedules
// the same events in the same order as a system built without the
// fault layer (the differential test pins this byte-identity).
type faultState struct {
	inj        *fault.Injector
	events     []fault.Event
	nextEv     int // next un-armed event (events are cycle-sorted)
	classifier *extsched.Classifier

	aliveEUs int
	deadEU   []bool // side-effect dedup for repeated EUFail events

	// OCRA degradation: reads whose seeding was lost to an SU failure,
	// awaiting re-dispatch on a surviving unit.
	retryReads []int
	// Hits Allocator degradation: hits pulled back from failed EUs.
	retryPending int              // requeued, not yet re-dispatched or dead-lettered
	inFlight     int              // extensions currently committed/executing
	attempts     map[core.Hit]int // scheduling attempts per requeued hit

	// hadHits[i]: read i produced at least one hit (for the
	// ReadsAbandoned accounting; sized at Run).
	hadHits []bool
}

func newFaultState(p *fault.Plan, cfg core.Config) *faultState {
	f := &faultState{
		inj:        fault.NewInjector(p, cfg.NumSUs, cfg.TotalEUs()),
		classifier: extsched.NewClassifier(cfg.EUClasses),
		aliveEUs:   cfg.TotalEUs(),
		deadEU:     make([]bool, cfg.TotalEUs()),
		attempts:   make(map[core.Hit]int),
	}
	f.events = f.inj.Events()
	return f
}

// advance lazily arms every fault event due at or before now. It runs
// from the engine's OnAdvance hook, which fires before each event's
// body, so a fault scheduled for cycle c is visible to every decision
// taken at c. Arming only mutates injector and unit state — it never
// schedules events, per the OnAdvance contract.
func (f *faultState) advance(now int64, s *System) {
	for f.nextEv < len(f.events) && f.events[f.nextEv].Cycle <= now {
		i := f.nextEv
		f.nextEv++
		f.inj.Arm(i)
		s.onFaultArmed(f.events[i])
	}
}

// onFaultArmed applies the machine-side effects of one armed fault.
// Unit stalls, memory windows, and pressure windows are pure injector
// state consulted at the decision points; permanent failures also
// update the alive pool and park idle victims.
func (s *System) onFaultArmed(ev fault.Event) {
	now := s.eng.Now()
	if o := s.opts.Obs; o != nil {
		o.FaultArmed(now, ev.Kind.String(), ev.Unit)
	}
	switch ev.Kind {
	case fault.EUFail:
		if ev.Unit < len(s.eus) && s.flt.inj.EUFailed(ev.Unit) && !s.flt.deadEU[ev.Unit] {
			s.flt.deadEU[ev.Unit] = true
			s.flt.aliveEUs--
			if u := s.eus[ev.Unit]; u.State() == core.Idle {
				s.stopEU(u) // idle victim leaves the pool immediately
			}
			// A busy victim keeps its in-flight task until completion,
			// where euDone detects the failure and requeues the hit.
		}
	case fault.SUFail:
		// No immediate action: a busy victim's completion path discards
		// its hits and re-dispatches the read; idle/blocked victims are
		// filtered at the next read-allocation or resume decision.
	}
}

// --- read-side degradation (OCRA skips failed SUs) -------------------

// takeRead returns the next read to seed, preferring reads requeued
// off failed SUs so no read waits longer than necessary.
func (s *System) takeRead() (int, bool) {
	if s.flt != nil && len(s.flt.retryReads) > 0 {
		idx := s.flt.retryReads[0]
		s.flt.retryReads = s.flt.retryReads[1:]
		return idx, true
	}
	if s.nextRead >= len(s.reads) {
		return 0, false
	}
	idx := s.nextRead
	s.nextRead++
	return idx, true
}

// remainingReads counts reads still awaiting seeding (fresh input
// plus requeued).
func (s *System) remainingReads() int {
	rem := len(s.reads) - s.nextRead
	if s.flt != nil {
		rem += len(s.flt.retryReads)
	}
	return rem
}

// inputDone reports whether seeding input is exhausted. Reads that no
// surviving SU could ever process count as done (they are abandoned
// and accounted, not waited on — waiting would strand the pipeline).
func (s *System) inputDone() bool {
	if s.flt != nil && !s.anyHealthySU() {
		return true
	}
	if s.nextRead < len(s.reads) {
		return false
	}
	return s.flt == nil || len(s.flt.retryReads) == 0
}

func (s *System) anyHealthySU() bool {
	for _, u := range s.sus {
		if !s.flt.inj.SUFailed(u.ID()) {
			return true
		}
	}
	return false
}

// readReadyAt is the prefetcher ready cycle plus any open
// memory-timeout window penalty.
func (s *System) readReadyAt(now int64, idx int) int64 {
	ready := s.prefet.ReadyAt(now+1, idx)
	if s.flt != nil {
		ready += s.flt.inj.MemDelay(ready)
	}
	return ready
}

// suFailedMidTask handles an SU that failed while seeding: the unit
// parks permanently, its in-progress results are discarded (a failed
// unit's output buffer is not trusted), and the read is requeued for
// a surviving unit — OCRA's redistribution policy.
func (s *System) suFailedMidTask(u *su.Unit, idx int) {
	now := s.eng.Now()
	u.SetIdle(now)
	u.Stop()
	s.flt.inj.Sum().ReadsReseeded++
	if o := s.opts.Obs; o != nil {
		o.ReadReseeded(now, u.ID(), idx)
	}
	s.flt.retryReads = append(s.flt.retryReads, idx)
	switch s.opts.SeedStrategy {
	case OneCycle:
		s.kickSeeding()
	case ReadInBatch:
		s.idleSUs++
		if s.idleSUs == len(s.sus) {
			s.eng.After(1, s.issueBatch)
		}
	}
}

// kickSeeding revives a parked healthy SU to pick up requeued reads.
// Needed when a read is requeued after the survivors already stopped
// (input looked exhausted); without it the read would strand.
func (s *System) kickSeeding() {
	for _, u := range s.sus {
		if u.State() == core.Stopped && !s.flt.inj.SUFailed(u.ID()) {
			s.startOneCycle(u)
			return
		}
	}
	// No parked healthy unit: busy/blocked survivors will drain
	// retryReads through their own completion paths.
}

// batchTargets lists the SUs eligible for the next batch (healthy
// units, in ID order).
func (s *System) batchTargets() []*su.Unit {
	targets := make([]*su.Unit, 0, len(s.sus))
	for _, u := range s.sus {
		if !s.flt.inj.SUFailed(u.ID()) {
			targets = append(targets, u)
		}
	}
	return targets
}

// --- hit-side degradation (HA re-dispatch with bounded retry) --------

// requeueHit pulls an in-flight hit back from failed unit u and
// enters it into the bounded-retry path.
func (s *System) requeueHit(u *eu.Unit, h core.Hit) {
	now := s.eng.Now()
	s.flt.retryPending++
	s.flt.inj.Sum().Requeued++
	if o := s.opts.Obs; o != nil {
		o.HitRequeued(now, u.ID())
	}
	s.scheduleRetry(h)
}

// scheduleRetry books the next re-dispatch attempt for h with
// exponential backoff, or dead-letters it once the budget is spent.
func (s *System) scheduleRetry(h core.Hit) {
	n := s.flt.attempts[h]
	if n >= maxRetryAttempts {
		s.deadLetter(h, n)
		return
	}
	s.flt.attempts[h] = n + 1
	s.eng.After(retryBackoff(n+1), func() { s.retryFire(h) })
}

// deadLetter abandons h after attempts retries: the loss is explicit,
// reasoned, and closes the conservation ledger (allocated + requeued
// + dead-lettered + shed accounts for every hit).
func (s *System) deadLetter(h core.Hit, attempts int) {
	now := s.eng.Now()
	s.flt.retryPending--
	delete(s.flt.attempts, h)
	if o := s.opts.Obs; o != nil {
		o.HitDeadLettered(now, attempts)
	}
	s.flt.inj.DeadLetter(fault.DeadLetter{
		ReadIdx:  h.ReadIdx,
		HitIdx:   h.HitIdx,
		Attempts: attempts,
		Cycle:    now,
		Reason:   "retry-budget-exhausted",
	})
}

// retryFire attempts one re-dispatch of a requeued hit onto an idle
// healthy EU; with none available it re-enters the backoff loop,
// burning an attempt so the loop stays bounded even with zero alive
// EUs.
func (s *System) retryFire(h core.Hit) {
	now := s.eng.Now()
	u := s.pickRetryEU(h)
	if u == nil {
		s.scheduleRetry(h)
		return
	}
	s.flt.retryPending--
	s.flt.inj.Sum().Retried++
	if o := s.opts.Obs; o != nil {
		o.RetryDispatched(now, u.ID())
	}
	s.setEUBusy(u, now)
	s.flt.inFlight++
	s.extend(u, &h)
}

// pickRetryEU chooses the idle healthy unit for a retry: the hit's
// optimal class if available, else the nearest class preferring
// larger arrays (a larger array always fits; a smaller one pays the
// Formula 3 quadratic penalty), lowest unit ID on ties — the same
// order the Grouped allocator's takeNearest uses, so retry placement
// is deterministic.
func (s *System) pickRetryEU(h core.Hit) *eu.Unit {
	opt := s.flt.classifier.OptimalClass(h.SchedLen())
	var best *eu.Unit
	bestRank := int(^uint(0) >> 1)
	for _, u := range s.eus {
		if u.State() != core.Idle || s.flt.inj.EUFailed(u.ID()) {
			continue
		}
		rank := (u.Class() - opt) * 2
		if rank < 0 {
			rank = -rank + 1
		}
		if rank < bestRank {
			best, bestRank = u, rank
		}
	}
	return best
}

// faultSummary attaches the run's fault accounting to the report.
func (s *System) faultSummary(rep *Report) {
	if s.flt == nil {
		if s.wdErr != nil {
			rep.Faults = &fault.Summary{
				WatchdogErr:           s.wdErr.Error(),
				DegradedThroughputRPS: rep.ThroughputReadsPerSec,
			}
		}
		return
	}
	sum := s.flt.inj.Summary()
	for i := range s.results {
		if i < len(s.flt.hadHits) && s.flt.hadHits[i] && s.results[i].Hits == 0 {
			sum.ReadsAbandoned++
		}
	}
	// Reads never seeded at all (stranded input / leftover requeues
	// after every SU died) are abandoned too.
	sum.ReadsAbandoned += len(s.flt.retryReads) + (len(s.reads) - s.nextRead)
	sum.DegradedThroughputRPS = rep.ThroughputReadsPerSec
	if s.wdErr != nil {
		sum.WatchdogErr = s.wdErr.Error()
	}
	rep.Faults = &sum
}
