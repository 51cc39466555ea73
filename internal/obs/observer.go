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

	// counterHandles, seriesHandles and histHandles cache Metrics'
	// handles for the fixed catalog names, each resolved on its hook's
	// first use so a metric exists exactly when its event happened;
	// classTasks and classIdle do the same for the eu.class<c>.* names,
	// by class. The hooks thus pay an array load per event instead of a
	// name lookup.
	counterHandles [numCounters]*Counter
	seriesHandles  [numSeries]*Series
	histHandles    [numHists]*Histogram
	classTasks     []*Counter
	classIdle      []*Series
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

// The fixed metric catalog: one ID per counter, series and histogram
// name the hooks emit, indexing the Observer's handle caches.
type (
	counterID   uint8
	seriesID    uint8
	histogramID uint8
)

const (
	cSUReads counterID = iota
	cSUHitsProduced
	cSUStallCycles
	cSUStalls
	cEUTasks
	cEUTracebackCycles
	cEUTracebackSpills
	cHitsPushed
	cPushBlocked
	cSwitches
	cForcedSwitches
	cAllocRounds
	cAllocAssigned
	cAllocWriteBacks
	cAllocFailedRounds
	cPrefetches
	cPrefetchedReads
	cTriggerFired
	cTriggerSuppressed
	cClampedSchedules
	cMemoHits
	cMemoMisses
	cFaultShed
	cFaultRequeued
	cFaultRetried
	cFaultDeadLettered
	cFaultReadsReseeded
	numCounters
)

var counterNames = [numCounters]string{
	cSUReads:            "su.reads",
	cSUHitsProduced:     "su.hits_produced",
	cSUStallCycles:      "su.stall_cycles",
	cSUStalls:           "su.stalls",
	cEUTasks:            "eu.tasks",
	cEUTracebackCycles:  "eu.traceback_cycles",
	cEUTracebackSpills:  "eu.traceback_spills",
	cHitsPushed:         "coordinator.hits_pushed",
	cPushBlocked:        "coordinator.push_blocked",
	cSwitches:           "coordinator.switches",
	cForcedSwitches:     "coordinator.forced_switches",
	cAllocRounds:        "alloc.rounds",
	cAllocAssigned:      "alloc.assigned",
	cAllocWriteBacks:    "alloc.write_backs",
	cAllocFailedRounds:  "alloc.failed_rounds",
	cPrefetches:         "seedsched.prefetches",
	cPrefetchedReads:    "seedsched.prefetched_reads",
	cTriggerFired:       "extsched.trigger_fired",
	cTriggerSuppressed:  "extsched.trigger_suppressed",
	cClampedSchedules:   "sim.clamped_schedules",
	cMemoHits:           "memo.hits",
	cMemoMisses:         "memo.misses",
	cFaultShed:          "fault.shed",
	cFaultRequeued:      "fault.requeued",
	cFaultRetried:       "fault.retried",
	cFaultDeadLettered:  "fault.dead_lettered",
	cFaultReadsReseeded: "fault.reads_reseeded",
}

const (
	sSBOccupancy seriesID = iota
	sPBRemaining
	numSeries
)

var seriesNames = [numSeries]string{
	sSBOccupancy: "coordinator.sb_occupancy",
	sPBRemaining: "coordinator.pb_remaining",
}

const (
	hHitLen histogramID = iota
	hAllocWindow
	numHists
)

var histNames = [numHists]string{
	hHitLen:      "eu.hit_len",
	hAllocWindow: "alloc.window",
}

// histBounds holds each histogram's bucket upper bounds: hit lengths
// against the canonical unit-size ladder (Fig. 9a's x-axis), and
// allocation-window sizes in powers of two.
var histBounds = [numHists][]float64{
	hHitLen:      {16, 32, 64, 128},
	hAllocWindow: {1, 2, 4, 8, 16, 32},
}

// counter returns the catalog counter id, resolving it on first use.
// Callers hold a non-nil Metrics.
func (o *Observer) counter(id counterID) *Counter {
	if c := o.counterHandles[id]; c != nil {
		return c
	}
	c := o.Metrics.Counter(counterNames[id])
	o.counterHandles[id] = c
	return c
}

// series is counter for the catalog's time series.
func (o *Observer) series(id seriesID) *Series {
	if s := o.seriesHandles[id]; s != nil {
		return s
	}
	s := o.Metrics.Series(seriesNames[id])
	o.seriesHandles[id] = s
	return s
}

// hist is counter for the catalog's histograms.
func (o *Observer) hist(id histogramID) *Histogram {
	if h := o.histHandles[id]; h != nil {
		return h
	}
	h := o.Metrics.Histogram(histNames[id], histBounds[id])
	o.histHandles[id] = h
	return h
}

// --- Seeding units ---------------------------------------------------

// SUSeed records one completed seeding task: unit id processed readIdx
// over [start, end), producing hits hits.
func (o *Observer) SUSeed(id, readIdx, hits int, start, end int64) {
	if o == nil {
		return
	}
	if o.Metrics != nil {
		o.counter(cSUReads).Inc()
		o.counter(cSUHitsProduced).Add(int64(hits))
	}
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
	if o.Metrics != nil {
		if d := end - start; d > 0 {
			o.counter(cSUStallCycles).Add(d)
		}
		o.counter(cSUStalls).Inc()
	}
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
	if o.Metrics != nil {
		o.counter(cEUTasks).Inc()
		o.classTasksCounter(class).Inc()
		o.hist(hHitLen).Observe(float64(hitLen))
	}
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
	if o.Metrics != nil {
		o.counter(cEUTracebackCycles).Add(cycles)
		if spilled {
			o.counter(cEUTracebackSpills).Inc()
		}
	}
	o.Inv.CheckTraceback(now, cycles, refSpan, readSpan)
}

// --- Coordinator: hits buffer ---------------------------------------

// BufferPush samples Store Buffer occupancy after a successful push.
func (o *Observer) BufferPush(now int64, sbLen, depth int) {
	if o == nil {
		return
	}
	if o.Metrics != nil {
		o.counter(cHitsPushed).Inc()
		o.series(sSBOccupancy).Sample(now, float64(sbLen))
	}
	o.Inv.CheckBuffer(now, sbLen, 0, 0, depth)
}

// BufferPushBlocked counts a rejected push (SB full — the producing SU
// must stall).
func (o *Observer) BufferPushBlocked(now int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.counter(cPushBlocked).Inc()
}

// BufferSwitch records buffer switch number n moving hits hits into
// the Processing Buffer (forced reports a below-threshold drain
// switch).
func (o *Observer) BufferSwitch(now int64, n, hits int, forced bool) {
	if o == nil {
		return
	}
	if o.Metrics != nil {
		o.counter(cSwitches).Inc()
		if forced {
			o.counter(cForcedSwitches).Inc()
		}
		o.series(sSBOccupancy).Sample(now, 0)
		o.series(sPBRemaining).Sample(now, float64(hits))
	}
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
	if o.Metrics != nil {
		o.series(sSBOccupancy).Sample(now, float64(sbLen))
		o.series(sPBRemaining).Sample(now, float64(pbRemaining))
	}
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
	if o.Metrics != nil {
		o.counter(cAllocRounds).Inc()
		o.counter(cAllocAssigned).Add(int64(assigned))
		o.counter(cAllocWriteBacks).Add(int64(writeBacks))
		if assigned == 0 {
			o.counter(cAllocFailedRounds).Inc()
		}
		o.hist(hAllocWindow).Observe(float64(window))
	}
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
	if o == nil || o.Metrics == nil {
		return
	}
	o.classIdleSeries(class).Sample(now, float64(idle))
}

// classTasksCounter returns the eu.class<class>.tasks counter, resolved
// on first use and cached. Callers hold a non-nil Metrics.
func (o *Observer) classTasksCounter(class int) *Counter {
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
	if o.Metrics != nil {
		o.counter(cPrefetches).Inc()
		o.counter(cPrefetchedReads).Add(int64(reads))
	}
	if o.Trace != nil {
		o.Trace.Thread(PidScheduler, 0, "Read SPM prefetch")
		o.Trace.Complete(PidScheduler, 0, "seedsched", fmt.Sprintf("prefetch batch %d", batchIdx),
			start, end, map[string]any{"reads": reads})
	}
}

// --- Extension scheduler --------------------------------------------

// TriggerEval counts one Allocate Trigger consultation.
func (o *Observer) TriggerEval(idle int, fired bool) {
	if o == nil || o.Metrics == nil {
		return
	}
	if fired {
		o.counter(cTriggerFired).Inc()
	} else {
		o.counter(cTriggerSuppressed).Inc()
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
	if o.Metrics != nil {
		o.counter(cClampedSchedules).Inc()
	}
	o.Inv.CheckClamp(delta)
}

// --- Memo ------------------------------------------------------------

// MemoLookup counts one functional-replay cache consultation.
func (o *Observer) MemoLookup(hit bool) {
	if o == nil || o.Metrics == nil {
		return
	}
	if hit {
		o.counter(cMemoHits).Inc()
	} else {
		o.counter(cMemoMisses).Inc()
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
	if o.Metrics != nil {
		o.counter(cFaultShed).Add(int64(n))
	}
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
	if o.Metrics != nil {
		o.counter(cFaultRequeued).Inc()
	}
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
	if o.Metrics != nil {
		o.counter(cFaultRetried).Inc()
	}
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
	if o.Metrics != nil {
		o.counter(cFaultDeadLettered).Inc()
	}
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
	if o.Metrics != nil {
		o.counter(cFaultReadsReseeded).Inc()
	}
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
