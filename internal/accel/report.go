package accel

import (
	"fmt"

	"nvwa/internal/coordinator"
	"nvwa/internal/energy"
	"nvwa/internal/fault"
	"nvwa/internal/mem"
	"nvwa/internal/pipeline"
	"nvwa/internal/sim"
)

// Report is the outcome of one simulation run.
type Report struct {
	// Description summarises the simulated configuration.
	Description string
	// Reads is the number of reads aligned.
	Reads int
	// TotalHits is the number of extension tasks produced.
	TotalHits int
	// Cycles is the makespan in accelerator cycles.
	Cycles int64
	// ThroughputReadsPerSec converts the makespan to reads/second at
	// the configured clock.
	ThroughputReadsPerSec float64
	// SUUtil and EUUtil are average unit utilizations over the run
	// (the Fig. 12 headline numbers). On a merged scale-out Report
	// they are cycle-weighted: a shard that drains early contributes
	// capacity only for the cycles it ran, as if its chip powered off.
	SUUtil, EUUtil float64
	// SUUtilMakespan and EUUtilMakespan normalize the same busy
	// unit-cycles by the capacity of all S chips over the merged
	// makespan (S × Cycles): an early-drained shard counts as idle
	// capacity until the slowest shard finishes. This is the honest
	// cluster-level utilization the scale-out balance floor guards; on
	// a single chip both weightings coincide, so unsharded Reports
	// carry identical values in both pairs.
	SUUtilMakespan, EUUtilMakespan float64
	// SUSeries and EUSeries are utilization time series (Fig. 12
	// curves) of traceBuckets equal spans of the run.
	SUSeries, EUSeries []float64
	// AllocStats reports optimal-assignment quality (Fig. 12 e/f).
	AllocStats coordinator.Stats
	// HBM is the off-chip memory traffic.
	HBM mem.Stats
	// Results is the per-read alignment outcome, comparable 1:1 with
	// the software pipeline's.
	Results []pipeline.Result
	// HitLens is every hit's extension length (Fig. 9a / 14b input).
	HitLens []int
	// Switches counts Coordinator buffer switches.
	Switches int
	// EUPEUtil is PE-level occupancy inside busy EUs, weighted by PEs.
	EUPEUtil float64
	// Traceback aggregates the EU pointer-matrix traceback model over
	// the run — the cost of producing full CIGARs rather than scores
	// alone. All zero when the cost model disables storage accounting.
	Traceback TracebackStats
	// PerClassEUUtil is the average unit utilization of each EU class
	// (indexed like Config.EUClasses), separating the small-array and
	// large-array halves of the Fig. 12(c) story.
	PerClassEUUtil []float64
	// Energy is the Table II-based energy estimate for the run.
	Energy energy.Estimate
	// Faults is the fault-injection accounting: injected / absorbed /
	// retried / dead-lettered counts, degraded throughput, and any
	// watchdog diagnosis. nil on fault-free runs without a watchdog
	// trip, so existing Reports are unchanged byte-for-byte.
	Faults *fault.Summary `json:",omitempty"`
	// StealLog is the balanced policy's resolved steal schedule, in
	// resolution order (see StealEvent). Empty under the static
	// policies and on unsharded runs, so those Reports are unchanged.
	StealLog []StealEvent `json:",omitempty"`
	// Recovery is the crash-recovery ledger: chip-crash restarts and
	// their checkpoint/replay costs. nil when no shard crashed and no
	// checkpointing ran, so existing Reports are unchanged
	// byte-for-byte. It is driver-side accounting — the simulated
	// results above are pinned identical to the crash-free run's — and
	// is summed by the sharded merge, never by MergeAcc.
	Recovery *RecoveryStats `json:",omitempty"`
}

// RecoveryStats accounts for crash recovery across one run.
type RecoveryStats struct {
	// Crashes is the number of chip-crash events absorbed (each kills
	// one shard, which restarts from its last checkpoint).
	Crashes int
	// ReplayedCycles is the total simulated work lost to crashes: for
	// each crash, the cycles between the restored checkpoint and the
	// crash point, re-simulated after restart.
	ReplayedCycles int64
	// Checkpoints is the number of snapshots taken (periodic + the one
	// implicit fresh-start snapshot per crash recovery that had no
	// periodic checkpoint yet counts 0).
	Checkpoints int
	// CheckpointBytes is the total encoded size of those snapshots.
	CheckpointBytes int64
}

// add folds another ledger into r (shard merge).
func (r *RecoveryStats) add(o *RecoveryStats) {
	if o == nil {
		return
	}
	r.Crashes += o.Crashes
	r.ReplayedCycles += o.ReplayedCycles
	r.Checkpoints += o.Checkpoints
	r.CheckpointBytes += o.CheckpointBytes
}

// TracebackStats is the run-level traceback accounting (see
// systolic.TracebackModel). Shard merges sum every field.
type TracebackStats struct {
	// Cycles is the total traceback latency charged: pointer walks
	// plus spill read-out.
	Cycles int64
	// Spills counts tasks whose pointer matrix overflowed the array's
	// SRAM budget.
	Spills int64
	// SpillCycles is the portion of Cycles spent streaming spilled
	// pointers back from HBM.
	SpillCycles int64
}

// traceBuckets is the resolution of the utilization time series.
const traceBuckets = 100

func (s *System) report(end int64) *Report {
	r := &Report{
		Description: s.Describe(),
		Reads:       len(s.reads),
		TotalHits:   s.totalHits,
		Cycles:      end,
		Results:     s.results,
		HitLens:     s.hitLens,
		AllocStats:  s.alloc.Stats(),
		HBM:         s.hbm.Stats(),
		Switches:    s.buffer.Switches(),
	}
	if end > 0 {
		hz := s.opts.Config.ClockGHz * 1e9
		r.ThroughputReadsPerSec = float64(len(s.reads)) / (float64(end) / hz)
	}
	suT := make([]*sim.BusyTracker, len(s.sus))
	for i, u := range s.sus {
		suT[i] = &u.Tracker
	}
	euT := make([]*sim.BusyTracker, len(s.eus))
	for i, u := range s.eus {
		euT[i] = &u.Tracker
	}
	r.SUUtil = sim.GroupUtilization(suT, 0, end)
	r.EUUtil = sim.GroupUtilization(euT, 0, end)
	// One chip: the capacity window is the makespan itself, so the
	// cycle-weighted and makespan-normalized figures coincide.
	r.SUUtilMakespan = r.SUUtil
	r.EUUtilMakespan = r.EUUtil
	r.SUSeries = sim.GroupSeries(suT, end, traceBuckets)
	r.EUSeries = sim.GroupSeries(euT, end, traceBuckets)

	if est, err := energy.EstimateRun(energy.RunStats{
		Cycles:      end,
		ClockGHz:    s.opts.Config.ClockGHz,
		Reads:       len(s.reads),
		HBMEnergyPJ: r.HBM.EnergyPJ,
		SUUtil:      r.SUUtil,
		EUUtil:      r.EUUtil,
	}); err == nil {
		r.Energy = est
	}

	byClass := make(map[int][]*sim.BusyTracker)
	for _, u := range s.eus {
		byClass[u.Class()] = append(byClass[u.Class()], &u.Tracker)
	}
	r.PerClassEUUtil = make([]float64, len(s.opts.Config.EUClasses))
	for ci := range r.PerClassEUUtil {
		r.PerClassEUUtil[ci] = sim.GroupUtilization(byClass[ci], 0, end)
	}

	var peBusy, peTotal float64
	for _, u := range s.eus {
		w := float64(u.PEs())
		peBusy += u.PEUtilization() * w * float64(u.Tasks())
		peTotal += w * float64(u.Tasks())
		r.Traceback.Cycles += u.TracebackCycles()
		r.Traceback.Spills += u.TracebackSpills()
		r.Traceback.SpillCycles += u.TracebackSpillCycles()
	}
	if peTotal > 0 {
		r.EUPEUtil = peBusy / peTotal
	}
	s.faultSummary(r)
	s.finalizeObs(r, end)
	return r
}

// finalizeObs exports the run's headline figures into the metrics
// registry so a -metrics snapshot carries the same SU/EU utilizations
// as the Report (they are the same values, so they agree exactly).
// The Report itself is never touched by observation: it is
// byte-identical with Obs set or nil.
func (s *System) finalizeObs(r *Report, end int64) {
	o := s.opts.Obs
	if o == nil || o.Metrics == nil {
		return
	}
	m := o.Metrics
	m.Gauge("sim.cycles").Set(float64(end))
	m.Gauge("throughput.reads_per_sec").Set(r.ThroughputReadsPerSec)
	m.Gauge("su.utilization").Set(r.SUUtil)
	m.Gauge("eu.utilization").Set(r.EUUtil)
	m.Gauge("eu.pe_utilization").Set(r.EUPEUtil)
	m.Gauge("alloc.optimal_fraction").Set(r.AllocStats.OptimalFraction())
	for ci, u := range r.PerClassEUUtil {
		m.Gauge(fmt.Sprintf("eu.class%d.utilization", ci)).Set(u)
	}
	m.Gauge("hbm.bytes").Set(float64(r.HBM.Bytes))
	m.Gauge("hbm.accesses").Set(float64(r.HBM.Accesses))
	m.Gauge("coordinator.switches_total").Set(float64(r.Switches))
	m.Gauge("sim.clamped_schedules_total").Set(float64(s.eng.Clamps()))
}
