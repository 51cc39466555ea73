// Package su models NvWa's seeding units: the bit-vectorised FM-index
// search engines (LFMapBit [65], occ interval 128) that execute the
// seeding phase. A unit is a pure cost model over the Table III hit
// records of one read: the records themselves come from the same SMEM
// search and chaining as the software pipeline — so the accelerator
// loses no accuracy — and the unit charges cycles from the search's
// actual memory traffic, which is what makes per-read seeding time
// diverse (the paper's Challenge-1).
package su

import (
	"nvwa/internal/ckpt"
	"nvwa/internal/core"
	"nvwa/internal/fmindex"
	"nvwa/internal/mem"
	"nvwa/internal/obs"
	"nvwa/internal/seq"
	"nvwa/internal/sim"
)

// CostModel converts FM-index traffic into cycles.
type CostModel struct {
	// OccCycles is the pipelined cost of one occurrence-table block
	// read from the unit's table SRAM.
	OccCycles int64
	// ChainCyclesPerSeed is the cost of inserting one seed into the
	// chaining logic.
	ChainCyclesPerSeed int64
	// FixedOverhead covers read load and unit setup.
	FixedOverhead int64
	// SARecordBytes is the size of one sampled-suffix-array record
	// fetched from HBM during locate.
	SARecordBytes int
	// SerializeDRAM exposes every suffix-array HBM access serially
	// after the search pipeline instead of overlapping it — the
	// behaviour of a unit WITHOUT ERT-style intra-unit context
	// switching (paper Sec. IV-B discussion). NvWa's SUs overlap.
	SerializeDRAM bool
}

// DefaultCostModel calibrates the SU near the paper's operating point:
// a 101 bp read takes a few thousand cycles, giving the 49 M reads/s
// order of magnitude for 128 SUs at 1 GHz.
func DefaultCostModel() CostModel {
	return CostModel{
		OccCycles:          5,
		ChainCyclesPerSeed: 4,
		FixedOverhead:      100,
		SARecordBytes:      16,
	}
}

// Seeding is the front-end algorithm whose hit records the units
// charge for: the FM-index three-pass pipeline (*pipeline.Aligner) or
// any alternative producing the Table III hit records, e.g. the
// minimizer seed-and-chain front end (paper Sec. VI flexibility). The
// unit's cycle cost is computed from the hit count and the returned
// Stats alone, so a front end's production path must
// charge exactly the Stats of its reference (fmindex.SeedsWS vs
// SeedsReference, pinned per read by pipeline's
// TestReferenceKernelsIdentical) — otherwise simulated Reports would
// depend on which software path computed a functionally identical
// answer.
type Seeding interface {
	SeedAndChain(readIdx int, read seq.Seq) ([]core.Hit, fmindex.Stats)
}

// Unit is one seeding unit.
type Unit struct {
	id    int
	hbm   *mem.HBM
	cost  CostModel
	state core.UnitState
	obs   *obs.Observer

	// Tracker records busy intervals for utilization figures.
	Tracker sim.BusyTracker

	// counters
	reads    int
	hits     int
	occTotal int64
}

// AttachObs wires an observer into the unit so each seeding task
// emits a trace span and metric updates. A nil observer detaches.
func (u *Unit) AttachObs(o *obs.Observer) { u.obs = o }

// New builds a seeding unit over an HBM channel model.
func New(id int, hbm *mem.HBM, cost CostModel) *Unit {
	return &Unit{id: id, hbm: hbm, cost: cost}
}

// ID returns the unit index.
func (u *Unit) ID() int { return u.id }

// State implements the Table III control interface.
func (u *Unit) State() core.UnitState { return u.state }

// Stop parks the unit at end of input.
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

// Process books the seeding of read readIdx starting at cycle now,
// given the read's hit count and the index traffic its search
// generated (the Seeding front end's outputs), and returns the
// completion cycle under the unit's cost model. The caller manages
// busy/idle state.
func (u *Unit) Process(now int64, readIdx, hits int, st fmindex.Stats) int64 {
	u.reads++
	u.hits += hits
	u.occTotal += int64(st.OccAccesses)

	// Occurrence-table traffic is served by the unit's private table
	// SRAM, fully pipelined.
	cycles := u.cost.FixedOverhead + int64(st.OccAccesses)*u.cost.OccCycles
	cycles += int64(hits) * u.cost.ChainCyclesPerSeed
	done := now + cycles
	// Sampled-suffix-array lookups go to HBM; each locate walk ends in
	// one SA record fetch.
	if u.cost.SerializeDRAM {
		// No intra-unit context switching: the unit stalls on each
		// access in turn, exposing the full DRAM latency chain.
		at := done
		for i := 0; i < st.SALookups; i++ {
			addr := int64(readIdx)*1024 + int64(i)*64
			at = u.hbm.Access(at, addr, u.cost.SARecordBytes)
		}
		done = at
	} else {
		// ERT-style switching (and NvWa's SUs): accesses overlap the
		// pipelined search; the unit finishes when the last stream
		// completes.
		for i := 0; i < st.SALookups; i++ {
			addr := int64(readIdx)*1024 + int64(i)*64 // spread across banks
			if at := u.hbm.Access(now+int64(i), addr, u.cost.SARecordBytes); at > done {
				done = at
			}
		}
	}
	if u.obs != nil {
		u.obs.SUSeed(u.id, readIdx, hits, now, done)
	}
	return done
}

// EncodeState writes the unit's canonical state inventory.
func (u *Unit) EncodeState(enc *ckpt.Encoder) {
	enc.Section("su.Unit")
	enc.PutInt(u.id)
	enc.PutInt(int(u.state))
	enc.PutInt(u.reads)
	enc.PutInt(u.hits)
	enc.PutI64(u.occTotal)
	u.Tracker.EncodeState(enc)
}
