package su

import (
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/genome"
	"nvwa/internal/mem"
	"nvwa/internal/pipeline"
)

func setup(t *testing.T) (*pipeline.Aligner, *genome.Reference, *mem.HBM) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), 50000, 1)
	return pipeline.New(ref.Seq, pipeline.DefaultOptions()), ref, mem.NewHBM(mem.HBM1())
}

// process seeds r in software and books it on u at cycle 0.
func process(u *Unit, a *pipeline.Aligner, r genome.Read) int64 {
	hits, st := a.SeedAndChain(r.ID, r.Seq)
	return u.Process(0, r.ID, len(hits), st)
}

// TestProcessMatchesSoftwareHits: booking the software seeding of each
// read completes after the fixed overhead plus the occurrence-table
// and chaining charge, and the unit counts every read and hit.
func TestProcessMatchesSoftwareHits(t *testing.T) {
	t.Parallel()
	a, ref, hbm := setup(t)
	cost := DefaultCostModel()
	u := New(0, hbm, cost)
	reads := genome.Simulate(ref, 40, genome.ShortReadConfig(2))
	total := 0
	for _, r := range reads {
		hits, st := a.SeedAndChain(r.ID, r.Seq)
		done := u.Process(0, r.ID, len(hits), st)
		floor := cost.FixedOverhead + int64(st.OccAccesses)*cost.OccCycles + int64(len(hits))*cost.ChainCyclesPerSeed
		if done < floor {
			t.Fatalf("read %d: completion %d below the pipelined search cost %d", r.ID, done, floor)
		}
		total += len(hits)
	}
	if u.reads != 40 || u.hits != total {
		t.Errorf("reads = %d, hits = %d; want 40, %d", u.reads, u.hits, total)
	}
}

func TestProcessCyclesAreInputSensitive(t *testing.T) {
	t.Parallel()
	// The paper's Challenge-1: per-read seeding time varies. Over a
	// batch of simulated reads the completion cycles must not be
	// constant.
	a, ref, hbm := setup(t)
	u := New(0, hbm, DefaultCostModel())
	reads := genome.Simulate(ref, 60, genome.ShortReadConfig(3))
	seen := map[int64]bool{}
	var min, max int64 = 1 << 62, 0
	for _, r := range reads {
		done := process(u, a, r)
		seen[done] = true
		if done < min {
			min = done
		}
		if done > max {
			max = done
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct durations over 60 reads", len(seen))
	}
	if max < min*11/10 {
		t.Errorf("duration spread too small: [%d, %d]", min, max)
	}
}

func TestProcessCyclesScaleWithCostModel(t *testing.T) {
	t.Parallel()
	a, ref, _ := setup(t)
	reads := genome.Simulate(ref, 10, genome.ShortReadConfig(4))
	cheap := New(0, mem.NewHBM(mem.HBM1()), CostModel{OccCycles: 1, FixedOverhead: 1, SARecordBytes: 16})
	costly := New(1, mem.NewHBM(mem.HBM1()), CostModel{OccCycles: 10, FixedOverhead: 1, SARecordBytes: 16})
	for _, r := range reads {
		d1 := process(cheap, a, r)
		d2 := process(costly, a, r)
		if d2 <= d1 {
			t.Fatalf("10x occ cost did not slow the unit: %d vs %d", d1, d2)
		}
	}
}

func TestUnitStateTransitions(t *testing.T) {
	t.Parallel()
	_, _, hbm := setup(t)
	u := New(3, hbm, DefaultCostModel())
	if u.State() != core.Idle {
		t.Errorf("initial state = %v", u.State())
	}
	u.SetBusy(10)
	if u.State() != core.Busy || !u.Tracker.Busy() {
		t.Error("SetBusy failed")
	}
	u.SetIdle(20)
	if u.State() != core.Idle || u.Tracker.Busy() {
		t.Error("SetIdle failed")
	}
	if got := u.Tracker.Utilization(0, 100); got != 0.1 {
		t.Errorf("busy fraction of [0,100) = %v, want 0.1", got)
	}
	u.Stop()
	if u.State() != core.Stopped {
		t.Error("Stop failed")
	}
	if u.ID() != 3 {
		t.Error("ID wrong")
	}
}

func TestProcessChargesHBM(t *testing.T) {
	t.Parallel()
	a, ref, hbm := setup(t)
	u := New(0, hbm, DefaultCostModel())
	reads := genome.Simulate(ref, 20, genome.ShortReadConfig(5))
	for _, r := range reads {
		process(u, a, r)
	}
	if hbm.Stats().Accesses == 0 {
		t.Error("seeding performed no HBM accesses (SA locate should)")
	}
}

func TestSerializeDRAMSlowsUnit(t *testing.T) {
	t.Parallel()
	// Without ERT-style intra-unit switching (paper Sec. IV-B), the SA
	// walks expose their DRAM latency serially; the unit must never be
	// faster that way.
	a, ref, _ := setup(t)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(9))
	overlap := New(0, mem.NewHBM(mem.HBM1()), DefaultCostModel())
	serialCost := DefaultCostModel()
	serialCost.SerializeDRAM = true
	serial := New(1, mem.NewHBM(mem.HBM1()), serialCost)
	slower := 0
	for _, r := range reads {
		d1 := process(overlap, a, r)
		d2 := process(serial, a, r)
		if d2 < d1 {
			t.Fatalf("read %d: serialized DRAM finished earlier (%d < %d)", r.ID, d2, d1)
		}
		if d2 > d1 {
			slower++
		}
	}
	if slower == 0 {
		t.Error("serializing DRAM never cost anything")
	}
}
