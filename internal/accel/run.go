package accel

import (
	"nvwa/internal/ckpt"
	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/eu"
	"nvwa/internal/fmindex"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
	"nvwa/internal/sim"
	"nvwa/internal/su"
)

// Run simulates the accelerator over the read set and returns the
// report. The event loop models exactly the paper's flow: SUs seed
// reads and push hits into the Coordinator's Store Buffer (stalling
// when it is full); buffer switches expose hits to allocation rounds;
// the Allocate Trigger requests a round whenever enough EUs idle; each
// round greedily assigns a window of hits to idle EUs, compacting
// allocation failures back into the Processing Buffer.
//
// Under a watchdog a diagnosed abort still yields the partial report;
// use RunChecked to also receive the error.
func (s *System) Run(reads []seq.Seq) *Report {
	r, _ := s.RunChecked(reads)
	return r
}

// RunChecked is Run returning the watchdog error, if any: a non-nil
// error means the configured sim.Watchdog diagnosed a cycle-budget or
// no-progress abort, and the report covers only the simulated prefix
// (its FaultSummary carries the same diagnosis).
//
// RunChecked is a thin wrapper over the incremental engine: one Feed,
// a run to quiescence, then DrainChecked — byte-identical to the
// historical run-to-completion loop.
func (s *System) RunChecked(reads []seq.Seq) (*Report, error) {
	s.Feed(reads)
	s.runEngine()
	return s.DrainChecked()
}

// Feed appends reads to the system's input. The first Feed schedules
// the seeding-phase init events; later Feeds wake any seeding units
// that had parked on exhausted input, so a simulation can be fed
// incrementally — between Step slices — instead of all at once. Each
// Feed is recorded at the engine's exact fired-event position, which
// is what lets a checkpoint replay mid-run feeds at precisely the
// right point in the event schedule.
func (s *System) Feed(reads []seq.Seq) {
	s.feedLog = append(s.feedLog, ckpt.FeedRec{Fired: s.eng.Fired(), N: int64(len(reads))})
	s.reads = append(s.reads, reads...)
	s.exts = append(s.exts, make([][]pipeline.Extended, len(reads))...)
	for range reads {
		s.results = append(s.results, pipeline.Result{})
		s.bestHit = append(s.bestHit, -1)
	}
	if s.flt != nil {
		s.flt.hadHits = append(s.flt.hadHits, make([]bool, len(reads))...)
	}
	if !s.started {
		s.started = true
		switch s.opts.SeedStrategy {
		case OneCycle:
			for _, u := range s.sus {
				uu := u
				s.eng.At(0, func() { s.startOneCycle(uu) })
			}
		case ReadInBatch:
			s.eng.At(0, s.issueBatch)
		}
		return
	}
	s.wakeSeeding()
}

// wakeSeeding revives seeding after a mid-run Feed: units that
// stopped because input looked exhausted pick the new reads up. A
// woken unit that loses the race for a read simply parks again, so
// waking is always safe; what matters for determinism is that the
// wake decisions are a pure function of (unit states, feed position),
// which replay reproduces exactly.
func (s *System) wakeSeeding() {
	switch s.opts.SeedStrategy {
	case OneCycle:
		for _, u := range s.sus {
			if u.State() != core.Stopped {
				continue
			}
			if s.flt != nil && s.flt.inj.SUFailed(u.ID()) {
				continue
			}
			s.startOneCycle(u)
		}
	case ReadInBatch:
		// The batch barrier re-arms only when every unit has parked;
		// if any unit is still busy the open barrier will collect the
		// new reads on its own.
		healthy := false
		stopped := true
		for _, u := range s.sus {
			if u.State() != core.Stopped {
				stopped = false
			}
			if s.flt == nil || !s.flt.inj.SUFailed(u.ID()) {
				healthy = true
			}
		}
		if stopped && healthy {
			s.eng.After(1, s.issueBatch)
		}
	}
}

// Step advances the simulation by budget cycles (events scheduled
// beyond the stepped-to horizon stay queued) and reports whether the
// event queue is empty — i.e. the run has reached quiescence and
// DrainChecked may finalize it. The horizon is a monotone cursor, not
// now+budget: firing no events does not advance the clock, so the
// cursor is what lets repeated small steps make progress across an
// event gap. A watchdog abort surfaces as the error and latches:
// further Steps are no-ops. Watchdog budgets accumulate across Steps
// exactly as they would across one continuous run.
func (s *System) Step(budget int64) (bool, error) {
	if budget < 1 {
		budget = 1
	}
	if now := s.eng.Now(); s.stepCursor < now {
		s.stepCursor = now
	}
	s.stepCursor += budget
	return s.StepUntil(s.stepCursor)
}

// StepUntil advances the simulation up to and including the given
// cycle; see Step.
func (s *System) StepUntil(cycle int64) (bool, error) {
	if s.wdErr == nil {
		if err := s.eng.RunBounded(cycle, -1, s.opts.Watchdog, &s.wdState); err != nil {
			s.wdErr = err
			s.fireAbort()
		}
	}
	return s.eng.Pending() == 0, s.wdErr
}

// Pending returns the number of queued simulation events; 0 means the
// main phase has reached quiescence.
func (s *System) Pending() int { return s.eng.Pending() }

// Now returns the current simulation cycle.
func (s *System) Now() int64 { return s.eng.Now() }

// DrainChecked finalizes an incrementally-driven run: it enforces the
// end-of-input drain contract, parks every unit, and builds the
// Report. It is the tail of the historical run-to-completion path;
// RunChecked ≡ Feed + run-to-quiescence + DrainChecked.
func (s *System) DrainChecked() (*Report, error) {
	if s.wdErr == nil {
		s.drain()
	}
	end := s.eng.Now()
	if o := s.opts.Obs; o != nil && s.wdErr == nil {
		o.Inv.CheckDrained(end, s.buffer.SBLen(), s.buffer.PBRemaining(), len(s.blocked))
	}
	for _, u := range s.sus {
		u.SetIdle(end)
	}
	for _, u := range s.eus {
		s.setEUIdle(u, end)
	}
	// Recycle the final PB generation (and, after an abort, any
	// stranded IDs) so the arena audits as fully drained — every
	// interned hit was dispatched, dropped, or released here.
	s.buffer.ReleaseAll()
	return s.report(end), s.wdErr
}

// runEngine drives the main phase to quiescence, under the configured
// watchdog when one is set. The first watchdog trip is latched in
// wdErr and stops all further processing. The persistent wdState
// makes the budgets identical whether the phase runs in one call here
// or sliced through Step.
func (s *System) runEngine() {
	if err := s.eng.RunBounded(-1, -1, s.opts.Watchdog, &s.wdState); err != nil {
		s.wdErr = err
		s.fireAbort()
	}
}

// drainEngine drives one drain-loop iteration's events. Each
// iteration gets fresh watchdog progress counters: the drain loop's
// own no-progress detection, not the accumulated main-phase counters,
// bounds it.
func (s *System) drainEngine() {
	var st sim.GuardState
	if err := s.eng.RunBounded(-1, -1, s.opts.Watchdog, &st); err != nil {
		s.wdErr = err
	}
}

// fireAbort hands the OnAbort hook a checkpoint of the exact abort
// synchronization point. The snapshot deliberately excludes the
// latched error: replaying it reconstructs the state right before the
// fatal event, so the artifact can resume under a raised budget.
func (s *System) fireAbort() {
	if s.opts.OnAbort == nil {
		return
	}
	if ck, err := s.Snapshot(); err == nil {
		s.opts.OnAbort(ck)
	}
}

// suTask is the pooled event payload for one SU's read: it fires once
// at the prefetcher's ready cycle to start seeding, reschedules itself
// for the completion cycle, and then recycles itself before handing
// the hits to suDone. Pooling these (and the euDone tasks below)
// removes the two closure allocations the event loop previously paid
// per read and per extension.
type suTask struct {
	s       *System
	u       *su.Unit
	idx     int
	hits    []core.Hit
	started bool
}

// TaskKind implements sim.TaskKind for diagnostics.
func (t *suTask) TaskKind() string { return "su" }

// Fire implements sim.Task.
func (t *suTask) Fire() {
	s := t.s
	if !t.started {
		hits, st := s.fill(t.idx)
		done := t.u.Process(s.eng.Now(), t.idx, len(hits), st)
		if s.flt != nil {
			// Transient SU stall: the unit holds its result for the
			// injected extra cycles.
			if d := s.flt.inj.TakeSUStall(t.u.ID()); d > 0 {
				done += d
			}
		}
		t.hits = hits
		t.started = true
		s.eng.AtTask(done, t)
		return
	}
	u, idx, hits := t.u, t.idx, t.hits
	t.u, t.hits, t.started = nil, nil, false
	s.suFree = append(s.suFree, t)
	if s.flt != nil && s.flt.inj.SUFailed(u.ID()) {
		// The unit failed while seeding: discard its output and
		// redistribute the read (OCRA degradation policy).
		s.suFailedMidTask(u, idx)
		return
	}
	s.suDone(u, hits)
}

// fill takes read idx's record at its seeding event: from the memo
// when it holds the read, otherwise from fillRead, the function
// BuildMemo runs per read. It keeps the extension records for the
// read's hits to be charged from and returns what the SU charges for.
// A read reseeded after an SU failure is filled again, to the same
// record.
func (s *System) fill(idx int) ([]core.Hit, fmindex.Stats) {
	r := s.memo.record(idx, s.reads[idx])
	if r == nil {
		rec := fillRead(s.front, s.ext, idx, s.reads[idx])
		r = &rec
	}
	s.exts[idx] = r.exts
	return r.hits, r.stats
}

// getSUTask takes a task from the freelist or allocates one.
func (s *System) getSUTask(u *su.Unit, idx int) *suTask {
	if n := len(s.suFree); n > 0 {
		t := s.suFree[n-1]
		s.suFree = s.suFree[:n-1]
		t.u, t.idx = u, idx
		return t
	}
	return &suTask{s: s, u: u, idx: idx}
}

// startOneCycle allocates the next read to an idle SU one cycle after
// it frees (the One-Cycle Read Allocator's behaviour: every idle unit
// is refilled in a single cycle). Under faults, failed units park and
// requeued reads are served first (see takeRead).
func (s *System) startOneCycle(u *su.Unit) {
	now := s.eng.Now()
	if s.flt != nil && s.flt.inj.SUFailed(u.ID()) {
		u.Stop()
		return
	}
	idx, ok := s.takeRead()
	if !ok {
		u.Stop()
		return
	}
	ready := s.readReadyAt(now, idx)
	u.SetBusy(now + 1)
	s.eng.AtTask(ready, s.getSUTask(u, idx))
}

// issueBatch implements Read-in-Batch: all SUs receive reads together,
// and the next batch waits for the slowest unit. Under faults only
// healthy units receive reads; failed units count as permanently idle
// so the batch barrier still closes.
func (s *System) issueBatch() {
	now := s.eng.Now()
	if s.inputDone() {
		for _, u := range s.sus {
			u.Stop()
		}
		s.maybeSwitch()
		return
	}
	targets := s.sus
	if s.flt != nil {
		targets = s.batchTargets()
	}
	n := len(targets)
	if rem := s.remainingReads(); rem < n {
		n = rem
	}
	s.idleSUs = len(s.sus) - n // units without work this batch stay idle
	for i := 0; i < n; i++ {
		u := targets[i]
		idx, ok := s.takeRead()
		if !ok {
			break
		}
		ready := s.readReadyAt(now, idx)
		u.SetBusy(now + 1)
		s.eng.AtTask(ready, s.getSUTask(u, idx))
	}
}

// suDone records the unit's hits and pushes them to the Coordinator.
func (s *System) suDone(u *su.Unit, hits []core.Hit) {
	for _, h := range hits {
		s.hitLens = append(s.hitLens, h.SchedLen())
	}
	s.totalHits += len(hits)
	if s.flt != nil && len(hits) > 0 {
		s.flt.hadHits[hits[0].ReadIdx] = true
	}
	s.finishPush(u, hits)
}

// finishPush pushes hits into the Store Buffer, stalling the SU when
// it fills (the paper's suspending state). Under an open backpressure
// window the Coordinator sheds incoming hits explicitly instead of
// corrupting the buffer.
func (s *System) finishPush(u *su.Unit, hits []core.Hit) {
	now := s.eng.Now()
	for len(hits) > 0 {
		if s.flt != nil && s.flt.inj.ShedNow(now, s.buffer.SBLen(), s.buffer.Depth()) {
			s.flt.inj.Sum().Shed++
			if o := s.opts.Obs; o != nil {
				o.HitsShed(now, 1)
			}
			hits = hits[1:]
			continue
		}
		if !s.buffer.Push(hits[0]) {
			u.SetIdle(now) // suspended: not doing useful seeding work
			s.blocked = append(s.blocked, blockedSU{unit: u, hits: hits, since: now})
			s.maybeSwitch()
			return
		}
		hits = hits[1:]
	}
	s.maybeSwitch()
	s.suIdle(u)
}

// suIdle returns a unit to the read-allocation path.
func (s *System) suIdle(u *su.Unit) {
	now := s.eng.Now()
	u.SetIdle(now)
	switch s.opts.SeedStrategy {
	case OneCycle:
		s.startOneCycle(u)
	case ReadInBatch:
		s.idleSUs++
		if s.idleSUs == len(s.sus) {
			s.eng.After(1, s.issueBatch)
		}
	}
}

// maybeSwitch performs a buffer switch when possible. Once the input
// is exhausted the threshold is waived so the pipeline drains.
func (s *System) maybeSwitch() {
	force := s.inputDone()
	if !s.buffer.TrySwitch(force) {
		return
	}
	now := s.eng.Now()
	// Space freed: resume suspended SUs.
	blocked := s.blocked
	s.blocked = nil
	for _, b := range blocked {
		bb := b
		s.eng.At(now+1, func() {
			if o := s.opts.Obs; o != nil {
				o.SUStall(bb.unit.ID(), bb.since, s.eng.Now())
			}
			s.finishPush(bb.unit, bb.hits)
		})
	}
	s.eng.At(now+1, s.tryRound)
}

// setEUBusy, setEUIdle and stopEU move an extension unit between
// states. Every EU state transition goes through them, so idleEUs
// always equals the number of units in core.Idle without a scan. The
// count is derived from the unit states: checkpoints do not carry it,
// and Restore rebuilds it by replay.
func (s *System) setEUBusy(u *eu.Unit, now int64) {
	if u.State() == core.Idle {
		s.idleEUs--
	}
	u.SetBusy(now)
}

func (s *System) setEUIdle(u *eu.Unit, now int64) {
	if u.State() != core.Idle {
		s.idleEUs++
	}
	u.SetIdle(now)
}

func (s *System) stopEU(u *eu.Unit) {
	if u.State() == core.Idle {
		s.idleEUs--
	}
	u.Stop()
}

// idlePool lists the currently idle extension units in EU-index order.
// The returned slice aliases a per-system scratch buffer, valid until
// the next idlePool call; tryRound consumes it synchronously (the
// allocator copies the pool into its own round scratch).
func (s *System) idlePool() []coordinator.IdleUnit {
	idle := s.idleBuf[:0]
	for _, u := range s.eus {
		if u.State() == core.Idle {
			idle = append(idle, coordinator.IdleUnit{ID: u.ID(), Class: u.Class(), PEs: u.PEs()})
		}
	}
	s.idleBuf = idle
	return idle
}

// tryRoundIfTriggered consults the Allocate Trigger (paper: request a
// round when >= 15% of EUs idle); in drain mode any idle unit
// justifies a round. Under faults the threshold is evaluated against
// the surviving pool, so mass EU failure cannot starve the allocator.
func (s *System) tryRoundIfTriggered() {
	idle := s.idleEUs
	drain := s.inputDone()
	var fired bool
	if s.flt != nil {
		fired = s.trigger.ShouldScheduleOf(idle, s.flt.aliveEUs)
	} else {
		fired = s.trigger.ShouldSchedule(idle)
	}
	if fired || (drain && idle > 0) {
		s.tryRound()
	}
}

// tryRound executes one Hits Allocator round (Fig. 10).
func (s *System) tryRound() {
	if s.roundActive {
		return
	}
	now := s.eng.Now()
	if s.buffer.PBRemaining() == 0 {
		s.maybeSwitch()
		if s.buffer.PBRemaining() == 0 {
			return
		}
	}
	if s.idleEUs == 0 {
		return
	}
	idle := s.idlePool()
	window := s.buffer.WindowIDs(s.opts.Config.AllocBatch)
	o := s.opts.Obs
	var winBefore obs.WindowDigest
	if o != nil && o.Inv != nil {
		winBefore = s.windowDigest(window)
	}
	assigned, un := s.alloc.AllocateIDs(s.arena, window, idle)
	// Materialize the dispatch-facing assignments. The IDs stay live —
	// CommitIDs moves them into the PB's consumed prefix, which the
	// state inventory still digests; they recycle at the next buffer
	// switch.
	asg := s.asgScratch[:0]
	ids := s.allocIDs[:0]
	for _, a := range assigned {
		asg = append(asg, coordinator.Assignment{Hit: s.arena.At(a.ID), Unit: a.Unit})
		ids = append(ids, a.ID)
	}
	s.asgScratch, s.allocIDs = asg, ids
	if o != nil {
		s.observeRound(now, window, winBefore, idle, asg, len(un))
	}
	if len(asg) == 0 {
		return
	}
	s.buffer.CommitIDs(ids, un)
	if s.flt != nil {
		s.flt.inFlight += len(ids)
	}
	if o != nil {
		o.Inv.CheckConservation(now, int64(s.buffer.SBLen()+s.buffer.PBRemaining()), "round")
		if s.flt != nil {
			o.Inv.CheckFaultLedger(now, int64(s.flt.retryPending), int64(s.flt.inFlight))
		}
	}
	s.roundActive = true
	// Reserve the assigned units for the duration of the round.
	for _, a := range asg {
		s.setEUBusy(s.eus[a.Unit.ID], now)
	}
	// asg aliases the system's round scratch; safe to carry into the
	// completion event because roundActive blocks the next round until
	// this task has consumed it.
	s.eng.AtTask(now+coordinator.RoundLatency(len(window)), s.getRoundTask(asg))
}

// windowDigest digests the hits an ID window names, for the obs window
// check.
func (s *System) windowDigest(ids []core.HitID) obs.WindowDigest {
	var d obs.WindowDigest
	for _, id := range ids {
		d.Add(s.arena.At(id))
	}
	return d
}

// roundTask is the pooled event payload for an allocation round's
// completion: it releases the round, dispatches the assignments, and
// re-consults the trigger.
type roundTask struct {
	s        *System
	assigned []coordinator.Assignment
}

// TaskKind implements sim.TaskKind for diagnostics.
func (t *roundTask) TaskKind() string { return "round" }

// Fire implements sim.Task.
func (t *roundTask) Fire() {
	s, assigned := t.s, t.assigned
	t.assigned = nil
	s.roundFree = append(s.roundFree, t)
	s.roundActive = false
	for i := range assigned {
		s.dispatch(&assigned[i])
	}
	s.tryRoundIfTriggered()
}

// getRoundTask takes a task from the freelist or allocates one.
func (s *System) getRoundTask(assigned []coordinator.Assignment) *roundTask {
	if n := len(s.roundFree); n > 0 {
		t := s.roundFree[n-1]
		s.roundFree = s.roundFree[:n-1]
		t.assigned = assigned
		return t
	}
	return &roundTask{s: s, assigned: assigned}
}

// observeRound checks and records one allocation round before it is
// committed: the window against its digest from before Allocate, the
// AllocRound hook, the round's unit discipline and, when metrics are
// on, the per-class idle depth series, through the system's round
// scratch.
func (s *System) observeRound(now int64, window []core.HitID, winBefore obs.WindowDigest, idle []coordinator.IdleUnit, assigned []coordinator.Assignment, writeBacks int) {
	o := s.opts.Obs
	if o.Inv != nil {
		// The window aliases the PB: AllocateIDs must not have mutated
		// it (the CommitIDs compaction reads the same backing array).
		o.Inv.CheckWindowUnchanged(now, winBefore, s.windowDigest(window))
	}
	o.AllocRound(now, len(window), len(assigned), writeBacks, len(idle),
		coordinator.RoundLatency(len(window)))
	if o.Inv != nil {
		idleIDs := s.obsIdleIDs[:0]
		for _, u := range idle {
			idleIDs = append(idleIDs, u.ID)
		}
		assignedIDs := s.obsAsgIDs[:0]
		for _, a := range assigned {
			assignedIDs = append(assignedIDs, a.Unit.ID)
		}
		s.obsIdleIDs, s.obsAsgIDs = idleIDs, assignedIDs
		o.Inv.CheckRound(now, idleIDs, assignedIDs)
	}
	if o.Metrics != nil {
		perClass := s.obsPerClass[:0]
		for range s.opts.Config.EUClasses {
			perClass = append(perClass, 0)
		}
		for _, u := range idle {
			if u.Class >= 0 && u.Class < len(perClass) {
				perClass[u.Class]++
			}
		}
		s.obsPerClass = perClass
		for ci, n := range perClass {
			o.EUClassIdle(now, ci, n)
		}
	}
}

// drain guarantees the end-of-input contract: once the event queue
// empties, no hit may be stranded in the Coordinator — neither a
// final sub-threshold Store Buffer nor leftover Processing Buffer
// entries nor a suspended SU's unpushed hits. The event-driven paths
// drain every healthy configuration on their own (each EU completion
// re-consults the trigger with the threshold waived), so this loop
// normally exits on its first check. It exists for the pathological
// tails — e.g. the Exclusive strategy facing a hit whose optimal class
// has zero units, where no future event could ever place the hit.
// Such provably unallocatable hits are dropped explicitly with a
// recorded reason, keeping the hit-conservation invariant
// (pushed == assigned + pending + dropped) auditable instead of
// letting hits vanish silently.
func (s *System) drain() {
	for {
		if s.buffer.SBLen() == 0 && s.buffer.PBRemaining() == 0 && len(s.blocked) == 0 {
			return
		}
		pb, sb, bl, at := s.buffer.PBRemaining(), s.buffer.SBLen(), len(s.blocked), s.eng.Now()
		s.maybeSwitch()
		s.tryRound()
		s.drainEngine()
		if s.wdErr != nil {
			return
		}
		if s.buffer.PBRemaining() == pb && s.buffer.SBLen() == sb &&
			len(s.blocked) == bl && s.eng.Now() == at {
			// No event moved anything: the window at the PB offset is
			// unallocatable under the configured strategy even with the
			// whole pool idle. Drop it with a reason and keep draining.
			n := s.buffer.WindowLen(s.opts.Config.AllocBatch)
			if s.buffer.Drop(n, "unallocatable") == 0 {
				// Nothing droppable either (e.g. a buffer switch is
				// impossible because input never ended): leave the rest
				// to the drain invariant, which will flag it.
				return
			}
		}
	}
}

// dispatch starts one extension task on its assigned unit.
func (s *System) dispatch(a *coordinator.Assignment) {
	if o := s.opts.Obs; o != nil {
		o.MemoLookup(s.memo != nil)
	}
	s.extend(s.eus[a.Unit.ID], &a.Hit)
}

// extend runs hit h on unit u from the current cycle and schedules its
// completion: the hit's extension record, filled at its read's seeding
// event, is expanded into the completion task and charged.
func (s *System) extend(u *eu.Unit, h *core.Hit) {
	t := s.getEUTask(u)
	e := &s.exts[h.ReadIdx][h.HitIdx]
	t.ext = e.Ext(*h)
	done := u.Charge(s.eng.Now(), &t.ext, e.Cost())
	if s.flt != nil {
		// Transient EU stall: the unit holds its result for the
		// injected extra cycles.
		if d := s.flt.inj.TakeEUStall(u.ID()); d > 0 {
			done += d
		}
	}
	s.eng.AtTask(done, t)
}

// euTask is the pooled event payload for one extension's completion.
type euTask struct {
	s   *System
	u   *eu.Unit
	ext core.Extension
}

// TaskKind implements sim.TaskKind for diagnostics.
func (t *euTask) TaskKind() string { return "eu" }

// Fire implements sim.Task. The task returns to the freelist only after
// euDone has read the result it holds.
func (t *euTask) Fire() {
	s := t.s
	s.euDone(t.u, &t.ext)
	t.u = nil
	s.euFree = append(s.euFree, t)
}

// getEUTask takes a task from the freelist or allocates one.
func (s *System) getEUTask(u *eu.Unit) *euTask {
	if n := len(s.euFree); n > 0 {
		t := s.euFree[n-1]
		s.euFree = s.euFree[:n-1]
		t.u = u
		return t
	}
	return &euTask{s: s, u: u}
}

// euDone records the extension result and re-consults the trigger.
// Score ties break toward the lowest hit index so the per-read result
// is independent of EU completion order and identical to the software
// pipeline's.
func (s *System) euDone(u *eu.Unit, ext *core.Extension) {
	now := s.eng.Now()
	s.setEUIdle(u, now)
	if s.flt != nil {
		s.flt.inFlight--
		if s.flt.inj.EUFailed(u.ID()) {
			// The unit failed while extending: discard its result, park
			// it, and re-dispatch the hit with bounded retry (Hits
			// Allocator degradation policy).
			s.stopEU(u)
			s.requeueHit(u, ext.Hit)
			s.tryRoundIfTriggered()
			return
		}
	}
	if o := s.opts.Obs; o != nil {
		o.ExtensionCompleted()
	}
	r := &s.results[ext.ReadIdx]
	if !r.Found || ext.Score > r.Score || (ext.Score == r.Score && ext.HitIdx < s.bestHit[ext.ReadIdx]) {
		r.Found = true
		r.Score = ext.Score
		r.RefBeg = ext.RefBeg
		r.RefEnd = ext.RefEnd
		r.Rev = ext.Rev
		s.bestHit[ext.ReadIdx] = ext.HitIdx
	}
	r.Hits++
	s.tryRoundIfTriggered()
}
