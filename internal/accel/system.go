// Package accel assembles the full NvWa accelerator model: 128 seeding
// units feeding a Coordinator hits buffer that dispatches to a hybrid
// pool of 70 systolic extension units, orchestrated by the three
// scheduling mechanisms of the paper (One-Cycle Read Allocator, Hybrid
// Units Strategy, greedy Hits Allocator) on a cycle-accurate
// discrete-event engine.
//
// Every mechanism can be independently replaced by its baseline
// (Read-in-Batch, uniform EUs, FIFO dispatch), which is how the
// paper's SUs+EUs comparison system and the Fig. 11 ablations are
// built.
package accel

import (
	"fmt"

	"nvwa/internal/ckpt"
	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/eu"
	"nvwa/internal/extsched"
	"nvwa/internal/fault"
	"nvwa/internal/mem"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seedsched"
	"nvwa/internal/seq"
	"nvwa/internal/sim"
	"nvwa/internal/su"
)

// SeedStrategy selects the seeding-phase scheduler.
type SeedStrategy int

const (
	// OneCycle is NvWa's One-Cycle Read Allocator: every idle SU gets
	// the next unprocessed read one cycle after finishing.
	OneCycle SeedStrategy = iota
	// ReadInBatch is the prior-work baseline: a new batch of reads is
	// issued only after every SU has finished the current batch.
	ReadInBatch
)

// String names the strategy.
func (s SeedStrategy) String() string {
	if s == OneCycle {
		return "one-cycle"
	}
	return "read-in-batch"
}

// Options configures a system instance. It holds only what some caller
// varies: values every caller shares are constants (core.AllocWindow
// and the other Coordinator parameters) or default cost models
// (su.DefaultCostModel, eu.DefaultCostModel).
type Options struct {
	// Config is the hardware configuration (Table I).
	Config core.Config
	// SeedStrategy picks OCRA or the batch baseline.
	SeedStrategy SeedStrategy
	// AllocStrategy picks the Hits Allocator variant.
	AllocStrategy coordinator.Strategy
	// Seeder optionally replaces the SUs' seeding front end (default:
	// the aligner's FM-index three-pass pipeline). The paper's unified
	// interface hosts any front end producing hit records, e.g.
	// pipeline.MinimizerSeeder.
	Seeder su.Seeding
	// SerializeDRAM builds SUs without intra-unit context switching:
	// each suffix-array HBM access is exposed serially (the Sec. IV-B
	// baseline; see su.CostModel). Otherwise every SU is built with
	// su.DefaultCostModel(), and every EU with eu.DefaultCostModel().
	SerializeDRAM bool
	// Memo optionally supplies the workload's per-read records ahead
	// of time (see BuildMemo). Feed binds it when it serves the run:
	// built over the seeding front end this system runs, keyed to its
	// resume identity, and holding exactly the fed reads. Otherwise
	// the system fills each read's record at the read's seeding event,
	// with the same function, so the Report is the same either way.
	Memo *Memo
	// Obs optionally attaches the observability layer: a metrics
	// registry, a Chrome trace_event timeline, and the scheduler
	// invariant checker, threaded through every component of the
	// simulated machine. nil (the default) disables observation at the
	// cost of one pointer test per hook. Observation never changes the
	// simulation: Reports are byte-identical with Obs set or nil.
	Obs *obs.Observer
	// Faults optionally injects a deterministic fault plan: SU/EU
	// transient stalls, permanent unit failures, memory-timeout
	// windows, and buffer-pressure shedding, each absorbed by a
	// graceful-degradation policy (see internal/fault and DESIGN.md
	// "Fault model and degradation policies"). nil (the default)
	// disables injection entirely: the run is byte-identical to a
	// system built without the fault layer. The Report then carries a
	// FaultSummary accounting for every injected fault.
	Faults *fault.Plan
	// Watchdog optionally bounds the run (cycle budget + no-progress
	// detection), turning livelock or runaway degradation into a
	// diagnosed error from RunChecked instead of a hang. nil disables.
	Watchdog *sim.Watchdog
	// OnAbort, when set, receives a checkpoint taken at the exact
	// synchronization point where the watchdog tripped (main phase
	// only), so a diagnosed hang becomes a resumable artifact: restore
	// it under a larger budget and the run continues from right before
	// the abort. The hook must not mutate the system.
	OnAbort func(*ckpt.Checkpoint)
}

// NvWaOptions returns the full NvWa system (all three mechanisms on).
func NvWaOptions() Options {
	return Options{
		Config:        core.DefaultConfig(),
		SeedStrategy:  OneCycle,
		AllocStrategy: coordinator.Grouped,
	}
}

// BaselineOptions returns the SUs+EUs comparison system: the same
// computing units with Read-in-Batch seeding, a uniform 64-PE EU pool
// of equal total PE budget, and FIFO hit dispatch.
func BaselineOptions() Options {
	o := NvWaOptions()
	o.Config = o.Config.UniformEUConfig(64)
	o.SeedStrategy = ReadInBatch
	o.AllocStrategy = coordinator.FIFO
	return o
}

// System is one simulated accelerator instance. Build a fresh System
// per Run; it is not reusable.
type System struct {
	opts    Options
	front   su.Seeding        // fills each read's hits
	ext     *pipeline.Aligner // fills each read's extension records
	hbm     *mem.HBM
	sus     []*su.Unit
	eus     []*eu.Unit
	buffer  *coordinator.HitsBuffer
	arena   *core.HitArena // the buffer's hit arena
	alloc   *coordinator.Allocator
	trigger *extsched.Trigger
	prefet  *seedsched.ReadSPM
	eng     sim.Engine
	memo    *Memo       // the bound Memo (see Feed); nil fills live
	flt     *faultState // non-nil when a fault plan is attached
	wdErr   error       // latched watchdog diagnosis

	reads []seq.Seq
	// exts holds each read's extension records, one per hit in hit
	// order, from its seeding event on (see fill).
	exts [][]pipeline.Extended

	// wdState carries the watchdog's budgets across StepUntil slices,
	// so a paused run trips exactly where a continuous one would;
	// shard stamps checkpoints taken inside a sharded worker.
	wdState sim.GuardState
	shard   int
	// resumeHash is the identity (ckpt.Checkpoint.Hash) of the
	// checkpoint Restore rebuilt this system from; 0 for a fresh run.
	// It changes no simulation behaviour, but it keys the Memo: Feed
	// binds only a Memo keyed to the same identity (KeyedToResume), so
	// a resumed run never aliases a fresh run's cache.
	resumeHash uint64
	// wlHash caches HashReads over the fed read set once wlHashOK, so
	// periodic snapshots don't re-digest the whole workload each time.
	wlHash   uint64
	wlHashOK bool

	// runtime state
	nextRead    int
	idleSUs     int
	idleEUs     int         // EUs in core.Idle; see setEUBusy
	blocked     []*suResume // SUs suspended on a full Store Buffer
	roundActive bool
	results     []pipeline.Result
	bestHit     []int // hit index of each read's current best, for tie-breaks
	hitLens     []int
	totalHits   int

	// Event-loop scratch reused across allocation rounds — the idle
	// pool, the ID list handed to CommitIDs, the materialized
	// assignments the dispatch path consumes, and the unit IDs and
	// per-class idle counts an observed round reports, all safe to
	// reuse per round because roundActive serializes rounds (see
	// tryRound) — and freelists of pooled event tasks so steady-state
	// scheduling allocates no closures (see run.go).
	idleBuf     []coordinator.IdleUnit
	allocIDs    []core.HitID
	asgScratch  []coordinator.Assignment
	obsIdleIDs  []int
	obsAsgIDs   []int
	obsPerClass []int
	suFree      []*suTask
	euFree      []*euTask
	roundFree   []*roundTask
	resumeFree  []*suResume
}

// New builds a system over an existing aligner (which owns the index).
func New(aligner *pipeline.Aligner, opts Options) (*System, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	if opts.Faults != nil {
		for _, ev := range opts.Faults.Events {
			if ev.Kind == fault.ChipCrash {
				return nil, fmt.Errorf("accel: %s targets a shard, not a unit: chip crashes are consumed by the sharded recovery layer (use NewSharded), not injectable into a single System", ev.Kind)
			}
		}
	}
	s := &System{
		opts:    opts,
		front:   aligner,
		ext:     aligner,
		hbm:     mem.NewHBM(mem.HBM1()),
		buffer:  coordinator.NewHitsBuffer(opts.Config.HitsBufferDepth, core.BufferSwitchFill),
		alloc:   newStatsAllocator(opts),
		trigger: extsched.NewTrigger(opts.Config.TotalEUs(), core.TriggerIdleFraction),
	}
	s.arena = s.buffer.Arena()
	if opts.Faults != nil {
		s.flt = newFaultState(opts.Faults, opts.Config)
	}
	s.prefet = seedsched.NewReadSPM(s.hbm, 512, 64, 32)
	if opts.Seeder != nil {
		s.front = opts.Seeder
	}
	suCost := su.DefaultCostModel()
	suCost.SerializeDRAM = opts.SerializeDRAM
	for i := 0; i < opts.Config.NumSUs; i++ {
		s.sus = append(s.sus, su.New(i, s.hbm, suCost))
	}
	euCost := eu.DefaultCostModel()
	id := 0
	for ci, cl := range opts.Config.EUClasses {
		for k := 0; k < cl.Count; k++ {
			s.eus = append(s.eus, eu.New(id, ci, cl.PEs, euCost))
			id++
		}
	}
	s.idleEUs = len(s.eus)
	if o := opts.Obs; o != nil {
		// Thread the observer through every component: the engine's
		// clamp/advance hooks feed the clamp counter and the monotone-
		// time invariant, the buffer emits occupancy/switch events, the
		// trigger and prefetcher count their decisions, and each unit
		// emits its task spans.
		s.eng.OnClamp = o.EngineClamp
		s.eng.OnAdvance = o.EngineAdvance
		s.buffer.AttachObs(o, s.eng.Now)
		s.trigger.AttachObs(o)
		s.prefet.AttachObs(o)
		for _, u := range s.sus {
			u.AttachObs(o)
		}
		for _, u := range s.eus {
			u.AttachObs(o)
		}
	}
	if s.flt != nil {
		// Lazy fault arming: due events arm at the head of the engine's
		// advance hook, before any same-cycle event body runs, so a
		// fault at cycle c is visible to every decision taken at c.
		// Wrapping preserves the observer's hook when both are set; the
		// nil-plan path leaves OnAdvance untouched.
		inner := s.eng.OnAdvance
		s.eng.OnAdvance = func(now int64) {
			s.flt.advance(now, s)
			if inner != nil {
				inner(now)
			}
		}
	}
	return s, nil
}

// newStatsAllocator builds the pool's allocator with assignment
// quality always judged against the canonical 16/32/64/128 ladder, so
// uniform baselines report the paper's Fig. 12(f) metric comparably.
func newStatsAllocator(opts Options) *coordinator.Allocator {
	a := coordinator.NewAllocator(opts.Config.EUClasses, opts.AllocStrategy)
	a.SetStatsSizes(extsched.PowerOfTwoSizes(4, 16))
	return a
}

// Describe summarises the instance for logs.
func (s *System) Describe() string {
	return fmt.Sprintf("%d SUs, %d EUs (%d PEs), seed=%s, alloc=%s, buffer=%d",
		len(s.sus), len(s.eus), s.opts.Config.TotalPEs(), s.opts.SeedStrategy,
		s.opts.AllocStrategy, s.opts.Config.HitsBufferDepth)
}
