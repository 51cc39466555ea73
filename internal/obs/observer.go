package obs

import "fmt"

// Observer bundles the three observability facilities for one
// simulated machine. Any field may be nil; a nil *Observer disables
// everything. Components call the domain hooks below instead of
// touching Metrics/Trace directly, so the metric catalog stays in one
// place (see DESIGN.md "Observability and invariants" for the full
// catalog).
type Observer struct {
	Metrics *Registry
	Trace   *Trace
	Inv     *Invariants

	// classTasks and classIdle cache Metrics' eu.class<c>.tasks and
	// eu.class<c>.idle handles by class, so the per-extension and
	// per-round hooks format each name once.
	classTasks []*Counter
	classIdle  []*Series
}

// New returns an Observer with metrics, trace, and invariant checking
// all enabled.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Trace: NewTrace(), Inv: NewInvariants()}
}

// NewInvariantsOnly returns an Observer that only checks invariants —
// the configuration the test suites run under, where metric and trace
// collection would be wasted work.
func NewInvariantsOnly() *Observer { return &Observer{Inv: NewInvariants()} }

// hitLenBounds buckets hit lengths against the canonical unit-size
// ladder (Fig. 9a's x-axis).
var hitLenBounds = []float64{16, 32, 64, 128}

// --- Seeding units ---------------------------------------------------

// SUSeed records one completed seeding task: unit id processed readIdx
// over [start, end), producing hits hits.
func (o *Observer) SUSeed(id, readIdx, hits int, start, end int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("su.reads").Inc()
	o.Metrics.Counter("su.hits_produced").Add(int64(hits))
	if o.Trace != nil {
		o.Trace.Thread(PidSU, id, fmt.Sprintf("SU %d", id))
		o.Trace.Complete(PidSU, id, "su", fmt.Sprintf("seed r%d", readIdx), start, end,
			map[string]any{"read": readIdx, "hits": hits})
	}
}

// SUStall records one SU suspension span: the unit was blocked pushing
// into a full Store Buffer from start to end.
func (o *Observer) SUStall(id int, start, end int64) {
	if o == nil {
		return
	}
	if d := end - start; d > 0 {
		o.Metrics.Counter("su.stall_cycles").Add(d)
	}
	o.Metrics.Counter("su.stalls").Inc()
	if o.Trace != nil {
		o.Trace.Thread(PidSU, id, fmt.Sprintf("SU %d", id))
		o.Trace.Complete(PidSU, id, "stall", "blocked (SB full)", start, end, nil)
	}
}

// --- Extension units -------------------------------------------------

// EUExtend records one completed extension task on unit id (class
// class, pes PEs) spanning [start, end) for a hit of length hitLen.
func (o *Observer) EUExtend(id, class, pes, hitLen int, start, end int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("eu.tasks").Inc()
	o.classTasksCounter(class).Inc()
	o.Metrics.Histogram("eu.hit_len", hitLenBounds).Observe(float64(hitLen))
	if o.Trace != nil {
		o.Trace.Thread(PidEU, id, fmt.Sprintf("EU %d (%d PEs)", id, pes))
		o.Trace.Complete(PidEU, id, "eu", fmt.Sprintf("extend len=%d", hitLen), start, end,
			map[string]any{"class": class, "pes": pes, "hit_len": hitLen})
	}
}

// EUTraceback records one task's traceback accounting: the modeled
// walk+readout cycles for an alignment spanning refSpan reference and
// readSpan read bases, and whether its pointer matrix spilled SRAM.
// It also feeds the traceback-cost invariant: the modeled cycles must
// cover at least the alignment path length (an alignment over those
// spans walks at minimum max(refSpan, readSpan) steps).
func (o *Observer) EUTraceback(now, cycles int64, refSpan, readSpan int, spilled bool) {
	if o == nil {
		return
	}
	o.Metrics.Counter("eu.traceback_cycles").Add(cycles)
	if spilled {
		o.Metrics.Counter("eu.traceback_spills").Inc()
	}
	o.Inv.CheckTraceback(now, cycles, refSpan, readSpan)
}

// --- Coordinator: hits buffer ---------------------------------------

// BufferPush samples Store Buffer occupancy after a successful push.
func (o *Observer) BufferPush(now int64, sbLen, depth int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("coordinator.hits_pushed").Inc()
	o.Metrics.Series("coordinator.sb_occupancy").Sample(now, float64(sbLen))
	o.Inv.CheckBuffer(now, sbLen, 0, 0, depth)
}

// BufferPushBlocked counts a rejected push (SB full — the producing SU
// must stall).
func (o *Observer) BufferPushBlocked(now int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("coordinator.push_blocked").Inc()
}

// BufferSwitch records buffer switch number n moving hits hits into
// the Processing Buffer (forced reports a below-threshold drain
// switch).
func (o *Observer) BufferSwitch(now int64, n, hits int, forced bool) {
	if o == nil {
		return
	}
	o.Metrics.Counter("coordinator.switches").Inc()
	if forced {
		o.Metrics.Counter("coordinator.forced_switches").Inc()
	}
	o.Metrics.Series("coordinator.sb_occupancy").Sample(now, 0)
	o.Metrics.Series("coordinator.pb_remaining").Sample(now, float64(hits))
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 0, "coordinator", fmt.Sprintf("switch #%d", n), now,
			map[string]any{"hits": hits, "forced": forced})
	}
}

// BufferOccupancy samples both sides of the double buffer (called from
// the engine's sampling hook and after commits).
func (o *Observer) BufferOccupancy(now int64, sbLen, pbRemaining int) {
	if o == nil {
		return
	}
	o.Metrics.Series("coordinator.sb_occupancy").Sample(now, float64(sbLen))
	o.Metrics.Series("coordinator.pb_remaining").Sample(now, float64(pbRemaining))
	if o.Trace != nil {
		o.Trace.CounterSample(PidCoordinator, "hits buffer", now,
			map[string]any{"SB": sbLen, "PB": pbRemaining})
	}
}

// --- Coordinator: allocation rounds ---------------------------------

// AllocRound records one Hits Allocator round: window hits examined,
// assigned dispatched, writeBacks compacted back into the PB, against
// idleUnits offered units.
func (o *Observer) AllocRound(now int64, window, assigned, writeBacks, idleUnits int, latency int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("alloc.rounds").Inc()
	o.Metrics.Counter("alloc.assigned").Add(int64(assigned))
	o.Metrics.Counter("alloc.write_backs").Add(int64(writeBacks))
	if assigned == 0 {
		o.Metrics.Counter("alloc.failed_rounds").Inc()
	}
	o.Metrics.Histogram("alloc.window", []float64{1, 2, 4, 8, 16, 32}).Observe(float64(window))
	if o.Trace != nil {
		o.Trace.Thread(PidCoordinator, 1, "Hits Allocator")
		o.Trace.Complete(PidCoordinator, 1, "alloc", fmt.Sprintf("round w=%d a=%d", window, assigned),
			now, now+latency,
			map[string]any{"window": window, "assigned": assigned, "write_backs": writeBacks, "idle_eus": idleUnits})
	}
}

// EUClassIdle samples the idle-unit depth of one EU class at an
// allocation round (the per-class queue-depth view of Fig. 12(c)).
func (o *Observer) EUClassIdle(now int64, class, idle int) {
	if o == nil {
		return
	}
	o.classIdleSeries(class).Sample(now, float64(idle))
}

// classTasksCounter returns the eu.class<class>.tasks counter, resolved
// on first use and cached; nil when metrics are off.
func (o *Observer) classTasksCounter(class int) *Counter {
	if o.Metrics == nil {
		return nil
	}
	for len(o.classTasks) <= class {
		o.classTasks = append(o.classTasks, nil)
	}
	if o.classTasks[class] == nil {
		o.classTasks[class] = o.Metrics.Counter(fmt.Sprintf("eu.class%d.tasks", class))
	}
	return o.classTasks[class]
}

// classIdleSeries is classTasksCounter for the eu.class<class>.idle
// series.
func (o *Observer) classIdleSeries(class int) *Series {
	if o.Metrics == nil {
		return nil
	}
	for len(o.classIdle) <= class {
		o.classIdle = append(o.classIdle, nil)
	}
	if o.classIdle[class] == nil {
		o.classIdle[class] = o.Metrics.Series(fmt.Sprintf("eu.class%d.idle", class))
	}
	return o.classIdle[class]
}

// --- Seeding scheduler ----------------------------------------------

// Prefetch records one read-SPM prefetch transaction fetching batch
// reads over [start, end).
func (o *Observer) Prefetch(batchIdx, reads int, start, end int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("seedsched.prefetches").Inc()
	o.Metrics.Counter("seedsched.prefetched_reads").Add(int64(reads))
	if o.Trace != nil {
		o.Trace.Thread(PidScheduler, 0, "Read SPM prefetch")
		o.Trace.Complete(PidScheduler, 0, "seedsched", fmt.Sprintf("prefetch batch %d", batchIdx),
			start, end, map[string]any{"reads": reads})
	}
}

// --- Extension scheduler --------------------------------------------

// TriggerEval counts one Allocate Trigger consultation.
func (o *Observer) TriggerEval(idle int, fired bool) {
	if o == nil {
		return
	}
	if fired {
		o.Metrics.Counter("extsched.trigger_fired").Inc()
	} else {
		o.Metrics.Counter("extsched.trigger_suppressed").Inc()
	}
}

// --- Engine ----------------------------------------------------------

// EngineAdvance observes the engine clock after each event, feeding
// the monotone-time invariant.
func (o *Observer) EngineAdvance(now int64) {
	if o == nil {
		return
	}
	o.Inv.CheckTime(now)
}

// EngineClamp counts one past-cycle scheduling clamp (delta cycles in
// the past) and flags it as an invariant violation.
func (o *Observer) EngineClamp(delta int64) {
	if o == nil {
		return
	}
	o.Metrics.Counter("sim.clamped_schedules").Inc()
	o.Inv.CheckClamp(delta)
}

// --- Memo ------------------------------------------------------------

// MemoLookup counts one functional-replay cache consultation.
func (o *Observer) MemoLookup(hit bool) {
	if o == nil {
		return
	}
	if hit {
		o.Metrics.Counter("memo.hits").Inc()
	} else {
		o.Metrics.Counter("memo.misses").Inc()
	}
}

// --- Drops -----------------------------------------------------------

// HitsDropped records hits dropped with a reason (ledger + counter).
func (o *Observer) HitsDropped(now int64, n int, reason string) {
	if o == nil {
		return
	}
	o.Metrics.Counter("alloc.dropped." + reason).Add(int64(n))
	o.Inv.RecordDropped(n, reason)
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 1, "alloc", "drop "+reason, now, map[string]any{"hits": n})
	}
}

// --- Fault injection & graceful degradation --------------------------

// FaultArmed records one fault event arming (kind is the fault's
// string name, unit -1 for window kinds).
func (o *Observer) FaultArmed(now int64, kind string, unit int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.armed." + kind).Inc()
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "arm "+kind, now, map[string]any{"unit": unit})
	}
}

// HitsShed records n hits shed by backpressure before entering the
// Store Buffer (explicit load shedding, not corruption).
func (o *Observer) HitsShed(now int64, n int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.shed").Add(int64(n))
	o.Inv.RecordShed(n)
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "shed", now, map[string]any{"hits": n})
	}
}

// HitRequeued records one in-flight hit pulled back from failed EU id
// for re-dispatch.
func (o *Observer) HitRequeued(now int64, euID int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.requeued").Inc()
	o.Inv.RecordRequeued(1)
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "requeue", now, map[string]any{"eu": euID})
	}
}

// RetryDispatched records one requeued hit re-dispatched onto healthy
// EU id.
func (o *Observer) RetryDispatched(now int64, euID int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.retried").Inc()
	o.Inv.RecordRetried(1)
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "retry", now, map[string]any{"eu": euID})
	}
}

// HitDeadLettered records one hit abandoned after attempts retries.
func (o *Observer) HitDeadLettered(now int64, attempts int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.dead_lettered").Inc()
	o.Inv.RecordDeadLettered(1)
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "dead-letter", now, map[string]any{"attempts": attempts})
	}
}

// ReadReseeded records read readIdx being re-dispatched after seeding
// unit suID failed mid-task.
func (o *Observer) ReadReseeded(now int64, suID, readIdx int) {
	if o == nil {
		return
	}
	o.Metrics.Counter("fault.reads_reseeded").Inc()
	if o.Trace != nil {
		o.Trace.Instant(PidCoordinator, 2, "fault", "reseed", now, map[string]any{"su": suID, "read": readIdx})
	}
}

// ExtensionCompleted accounts one extension finishing on a healthy
// unit — the terminal arm of the extended conservation ledger.
func (o *Observer) ExtensionCompleted() {
	if o == nil {
		return
	}
	o.Inv.RecordCompleted(1)
}
