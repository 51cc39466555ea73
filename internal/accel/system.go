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

// Options configures a system instance.
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
	// SUCost and EUCost are the unit cycle models.
	SUCost su.CostModel
	// EUCost is the extension-unit fixed-cost model.
	EUCost eu.CostModel
	// TraceBuckets is the resolution of utilization time series.
	TraceBuckets int
	// Memo optionally supplies a precomputed functional-replay cache
	// (see BuildMemo). It is consumed only when it was built over the
	// same seeding front end this system runs, so attaching a default
	// FM-index memo to a minimizer-seeded system is a harmless no-op.
	// Replayed runs produce byte-identical Reports to direct runs; the
	// cache only removes redundant recomputation from the event loop.
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
	// ResumeHash marks this system as restored from the checkpoint
	// with that identity (ckpt.Checkpoint.Hash). It is set by Restore,
	// not by callers. A non-zero ResumeHash changes no simulation
	// behaviour, but it keys caches: an attached Memo is consumed only
	// if it was explicitly keyed to the same resume identity, so a
	// resumed run can never alias a fresh run's cache entries.
	ResumeHash uint64
}

// NvWaOptions returns the full NvWa system (all three mechanisms on).
func NvWaOptions() Options {
	return Options{
		Config:        core.DefaultConfig(),
		SeedStrategy:  OneCycle,
		AllocStrategy: coordinator.Grouped,
		SUCost:        su.DefaultCostModel(),
		EUCost:        eu.DefaultCostModel(),
		TraceBuckets:  100,
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
	aligner *pipeline.Aligner
	hbm     *mem.HBM
	sus     []*su.Unit
	eus     []*eu.Unit
	buffer  *coordinator.HitsBuffer
	arena   *core.HitArena // the buffer's hit arena
	alloc   *coordinator.Allocator
	trigger *extsched.Trigger
	prefet  *seedsched.ReadSPM
	eng     sim.Engine
	memo    *Memo       // non-nil in replay mode
	flt     *faultState // non-nil when a fault plan is attached
	wdErr   error       // latched watchdog diagnosis

	reads []seq.Seq

	// Incremental-run state: started latches the first Feed (which
	// schedules the seeding init events); feedLog records every Feed
	// at its exact fired-event position for checkpoint replay; wdState
	// carries the watchdog's budgets across Step slices so a stepped
	// run trips exactly where a continuous one would; shard stamps
	// checkpoints taken inside a sharded worker.
	started bool
	feedLog []ckpt.FeedRec
	wdState sim.GuardState
	shard   int
	// stepCursor is Step's monotone horizon; a driver-side convenience
	// only — the event schedule (and so the checkpoint inventory) never
	// depends on it.
	stepCursor int64
	// wlHash caches HashReads over the fed read set (valid while
	// wlHashOK and wlHashLen == len(reads); Feed only appends), so
	// periodic snapshots don't re-digest the whole workload each time.
	wlHash    uint64
	wlHashLen int
	wlHashOK  bool

	// runtime state
	nextRead    int
	idleSUs     int
	blocked     []blockedSU
	roundActive bool
	results     []pipeline.Result
	bestHit     []int // hit index of each read's current best, for tie-breaks
	hitLens     []int
	totalHits   int
	stallCycles int64

	// Event-loop scratch reused across allocation rounds — the idle
	// pool, the ID list handed to CommitIDs, and the materialized
	// assignments the dispatch path consumes, all safe to reuse per
	// round because roundActive serializes rounds (see tryRound) — and
	// freelists of pooled event tasks so steady-state scheduling
	// allocates no closures (see run.go).
	idleBuf    []coordinator.IdleUnit
	allocIDs   []core.HitID
	asgScratch []coordinator.Assignment
	winDeref   []core.Hit
	suFree     []*suTask
	euFree     []*euTask
	roundFree  []*roundTask
}

type blockedSU struct {
	unit  *su.Unit
	hits  []core.Hit
	since int64 // suspension start cycle, for the stall-span trace
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
	if opts.TraceBuckets <= 0 {
		opts.TraceBuckets = 100
	}
	s := &System{
		opts:    opts,
		aligner: aligner,
		hbm:     mem.NewHBM(mem.HBM1()),
		buffer:  coordinator.NewHitsBuffer(opts.Config.HitsBufferDepth, opts.Config.SwitchThreshold),
		alloc:   newStatsAllocator(opts),
		trigger: extsched.NewTrigger(opts.Config.TotalEUs(), opts.Config.IdleEUTrigger),
	}
	s.arena = s.buffer.Arena()
	if opts.Faults != nil {
		s.flt = newFaultState(opts.Faults, opts.Config)
	}
	s.prefet = seedsched.NewReadSPM(s.hbm, 512, 64, 32)
	var front su.Seeding = aligner
	if opts.Seeder != nil {
		front = opts.Seeder
	}
	var ext eu.Extender = aligner
	if opts.Memo.Replays(front) && opts.Memo.CoversPlan(opts.Faults.Hash()) && opts.Memo.CoversResume(opts.ResumeHash) {
		// Replay mode: the units consume precomputed functional results
		// and the event loop models only cycle costs. The memo is keyed
		// to a fault-plan hash as well as its front end, so a cache
		// warmed fault-free can never serve a faulted configuration.
		s.memo = opts.Memo
		front = s.memo
		ext = s.memo
	}
	for i := 0; i < opts.Config.NumSUs; i++ {
		s.sus = append(s.sus, su.New(i, front, s.hbm, opts.SUCost))
	}
	id := 0
	for ci, cl := range opts.Config.EUClasses {
		for k := 0; k < cl.Count; k++ {
			s.eus = append(s.eus, eu.New(id, ci, cl.PEs, ext, opts.EUCost))
			id++
		}
	}
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

// setShard stamps the shard index carried in checkpoints taken by
// this system (0 for unsharded runs).
func (s *System) setShard(i int) { s.shard = i }

// Describe summarises the instance for logs.
func (s *System) Describe() string {
	return fmt.Sprintf("%d SUs, %d EUs (%d PEs), seed=%s, alloc=%s, buffer=%d",
		len(s.sus), len(s.eus), s.opts.Config.TotalPEs(), s.opts.SeedStrategy,
		s.opts.AllocStrategy, s.opts.Config.HitsBufferDepth)
}
