// Package eu models NvWa's extension units: Darwin-style Smith-
// Waterman systolic arrays that execute the seed-extension phase. A
// unit is a pure cost model over the Table III extension records: the
// records come from the software pipeline's extension (whose scores
// the cycle-exact array of package systolic is tested to reproduce),
// and the unit charges each hit's two sub-tasks (left and right of the
// seed) by the paper's Formula 3 (systolic.Latency) for its PE count.
// Results equal the software pipeline's; latency follows the modeled
// array.
package eu

import (
	"nvwa/internal/ckpt"
	"nvwa/internal/core"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/sim"
	"nvwa/internal/systolic"
)

// CostModel adds the fixed per-task costs around the matrix fill.
type CostModel struct {
	// LoadCycles covers loading the hit's query and reference windows
	// into the array.
	LoadCycles int64
	// Traceback sizes the array's pointer-matrix storage and read-out
	// path. The zero value is the storage-free footnote-4 walk over
	// the alignment spans; DefaultTracebackModel adds per-array SRAM
	// capacity and HBM spill read-out.
	Traceback systolic.TracebackModel
}

// DefaultCostModel returns the calibrated fixed costs.
func DefaultCostModel() CostModel {
	return CostModel{LoadCycles: 8, Traceback: systolic.DefaultTracebackModel()}
}

// Unit is one extension unit.
type Unit struct {
	id    int
	class int
	pes   int // systolic-array width, the P of Formula 3
	cost  CostModel
	state core.UnitState
	obs   *obs.Observer

	// Tracker records busy intervals for utilization figures.
	Tracker sim.BusyTracker

	// counters
	tasks        int
	fillCycles   int64
	occupancy    int64 // load + fill + traceback, the full array-busy span
	busyPECycles int64
	tbCycles     int64
	tbSpills     int64
	tbSpillCyc   int64
}

// New builds an extension unit of the given class with pes processing
// elements.
func New(id, class, pes int, cost CostModel) *Unit {
	return &Unit{id: id, class: class, pes: pes, cost: cost}
}

// ID returns the unit's global index.
func (u *Unit) ID() int { return u.id }

// Class returns the unit's class index in the hybrid pool.
func (u *Unit) Class() int { return u.class }

// PEs implements the Table III pe_number signal.
func (u *Unit) PEs() int { return u.pes }

// AttachObs wires an observer into the unit so each extension task
// emits a trace span and metric updates. A nil observer detaches.
func (u *Unit) AttachObs(o *obs.Observer) { u.obs = o }

// State implements the Table III control interface.
func (u *Unit) State() core.UnitState { return u.state }

// Stop parks the unit.
func (u *Unit) Stop() { u.state = core.Stopped }

// SetBusy transitions the unit to busy at cycle now.
func (u *Unit) SetBusy(now int64) {
	u.state = core.Busy
	u.Tracker.SetBusy(now)
}

// SetIdle transitions the unit to idle at cycle now.
func (u *Unit) SetIdle(now int64) {
	u.state = core.Idle
	u.Tracker.SetIdle(now)
}

// Tasks returns how many hits the unit has extended.
func (u *Unit) Tasks() int { return u.tasks }

// PEUtilization returns the array's internal PE occupancy across all
// executed tasks: busy PE-cycles over PEs × the full array-busy span
// (load + fill + traceback). The denominator matches the busy
// interval Charge reports through obs.EUExtend cycle for cycle, so
// the trace timeline and the utilization figure tell the same story:
// PEs sit idle while operands load and while the pointer walk reads
// the matrix back out.
func (u *Unit) PEUtilization() float64 {
	if u.occupancy == 0 {
		return 0
	}
	return float64(u.busyPECycles) / float64(int64(u.pes)*u.occupancy)
}

// TracebackCycles returns the total traceback cycles (pointer walk +
// spill read-out) across executed tasks.
func (u *Unit) TracebackCycles() int64 { return u.tbCycles }

// TracebackSpills returns how many tasks overflowed the array's
// pointer-matrix SRAM.
func (u *Unit) TracebackSpills() int64 { return u.tbSpills }

// TracebackSpillCycles returns the cycles spent streaming spilled
// pointers back from HBM.
func (u *Unit) TracebackSpillCycles() int64 { return u.tbSpillCyc }

// Charge books the extension of one hit starting at cycle now and
// returns the completion cycle; the caller manages busy/idle state.
// ext is the hit's extension result (its embedded Hit is the task) and
// cost the DP extents the extension processed, both expanded from the
// hit's pipeline.Extended record. Charge reads ext and never retains
// it.
//
// Timing follows the paper's Formula 3 over the task the array
// actually executes, GACT-style: the seed span streams through the
// array with both flank extensions appended, and a flank stops
// occupying the array once the z-drop heuristic kills it. A strong
// full-coverage chain is therefore a long task (roughly the read
// length), while the numerous spurious repeat-fragment chains
// terminate after a handful of rows and form the short-task mass the
// Hybrid Units Strategy sizes its small arrays for.
func (u *Unit) Charge(now int64, ext *core.Extension, cost pipeline.ExtendCost) int64 {
	h := &ext.Hit
	r, _ := cost.TaskDims(*h)
	// The hit span (the paper's hit_len) sets the array residency —
	// how many P-wide query blocks stream the reference — while the
	// flank probes extend the streamed reference (r includes the rows
	// the z-drop heuristic actually processed). This is what makes
	// Formula 3 with R=Q=hit_len the right sizing rule, exactly as the
	// paper applies it in Fig. 8/9.
	fill := int64(systolic.Latency(r, h.SeedLen(), u.pes))
	u.fillCycles += fill
	// PE-occupancy accounting: processed DP cells over the array-time
	// the task held. Each computed cell also banks a traceback pointer.
	cells := cost.LeftRows*cost.LeftQ + cost.RightRows*cost.RightQ + h.SeedLen()
	u.busyPECycles += int64(cells)
	// Traceback walks the task's final alignment path — the *aligned*
	// spans, not the seed span: a z-dropped secondary traces only its
	// short surviving span, a full-coverage alignment the whole read.
	// The pointer-matrix model adds spill read-out when the computed
	// cells overflow the array's pointer SRAM.
	tb := u.cost.Traceback.Cost(cells, ext.RefSpan()+ext.ReadSpan())
	u.tbCycles += tb.Cycles
	u.tbSpillCyc += tb.SpillCycles
	if tb.Spilled {
		u.tbSpills++
	}
	cycles := u.cost.LoadCycles + fill + tb.Cycles
	u.occupancy += cycles
	u.tasks++
	if u.obs != nil {
		u.obs.EUExtend(u.id, u.class, u.pes, h.SchedLen(), now, now+cycles)
		u.obs.EUTraceback(now, tb.Cycles, ext.RefSpan(), ext.ReadSpan(), tb.Spilled)
	}
	return now + cycles
}

// EncodeState writes the unit's canonical state inventory.
func (u *Unit) EncodeState(enc *ckpt.Encoder) {
	enc.Section("eu.Unit")
	enc.PutInt(u.id)
	enc.PutInt(u.class)
	enc.PutInt(int(u.state))
	enc.PutInt(u.tasks)
	enc.PutI64(u.fillCycles)
	enc.PutI64(u.occupancy)
	enc.PutI64(u.busyPECycles)
	enc.PutI64(u.tbCycles)
	enc.PutI64(u.tbSpills)
	enc.PutI64(u.tbSpillCyc)
	u.Tracker.EncodeState(enc)
}
