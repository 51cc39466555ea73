package su

import (
	"testing"

	"nvwa/internal/genome"
	"nvwa/internal/mem"
	"nvwa/internal/pipeline"
)

func setup(t *testing.T) (*pipeline.Aligner, *genome.Reference, *mem.HBM) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), 50000, 1)
	return pipeline.New(ref.Seq, pipeline.DefaultOptions()), ref, mem.NewHBM(mem.HBM1())
}

func TestProcessMatchesSoftwareHits(t *testing.T) {
	t.Parallel()
	a, ref, hbm := setup(t)
	u := New(0, a, hbm, DefaultCostModel())
	reads := genome.Simulate(ref, 40, genome.ShortReadConfig(2))
	for _, r := range reads {
		want, _ := a.SeedAndChain(r.ID, r.Seq)
		got, done := u.Process(0, r.ID, r.Seq)
		if len(got) != len(want) {
			t.Fatalf("read %d: %d hits != software %d", r.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("read %d hit %d: %+v != %+v", r.ID, i, got[i], want[i])
			}
		}
		if done <= 0 {
			t.Fatal("non-positive completion")
		}
	}
	if u.Reads() != 40 {
		t.Errorf("Reads = %d", u.Reads())
	}
}

func TestProcessCyclesAreInputSensitive(t *testing.T) {
	t.Parallel()
	// The paper's Challenge-1: per-read seeding time varies. Over a
	// batch of simulated reads the completion cycles must not be
	// constant.
	a, ref, hbm := setup(t)
	u := New(0, a, hbm, DefaultCostModel())
	reads := genome.Simulate(ref, 60, genome.ShortReadConfig(3))
	seen := map[int64]bool{}
	var min, max int64 = 1 << 62, 0
	for _, r := range reads {
		_, done := u.Process(0, r.ID, r.Seq)
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
	cheap := New(0, a, mem.NewHBM(mem.HBM1()), CostModel{OccCycles: 1, FixedOverhead: 1, SARecordBytes: 16})
	costly := New(1, a, mem.NewHBM(mem.HBM1()), CostModel{OccCycles: 10, FixedOverhead: 1, SARecordBytes: 16})
	for _, r := range reads {
		_, d1 := cheap.Process(0, r.ID, r.Seq)
		_, d2 := costly.Process(0, r.ID, r.Seq)
		if d2 <= d1 {
			t.Fatalf("10x occ cost did not slow the unit: %d vs %d", d1, d2)
		}
	}
}

func TestProcessCyclesInvariantToSeedingFastPath(t *testing.T) {
	t.Parallel()
	// The unit's cycle cost derives solely from the front end's charged
	// Stats, so the k-mer LUT jump-start must leave completion cycles —
	// not just hits — exactly as plain stepwise search computes them.
	// The stepwise side is a second aligner over the same reference
	// with a 1-mer table, which skips no extension step. A Stats
	// divergence in the front end would surface here as a cycle drift.
	a, ref, _ := setup(t)
	stepwise := pipeline.New(a.Ref(), a.Options())
	if err := stepwise.Seeder().Bi().BuildLUT(1); err != nil {
		t.Fatal(err)
	}
	reads := genome.Simulate(ref, 40, genome.ShortReadConfig(13))
	fastU := New(0, a, mem.NewHBM(mem.HBM1()), DefaultCostModel())
	var fastHits []int
	var fastDone []int64
	for _, r := range reads {
		h, d := fastU.Process(0, r.ID, r.Seq)
		fastHits = append(fastHits, len(h))
		fastDone = append(fastDone, d)
	}
	slowU := New(0, stepwise, mem.NewHBM(mem.HBM1()), DefaultCostModel())
	for i, r := range reads {
		h, d := slowU.Process(0, r.ID, r.Seq)
		if len(h) != fastHits[i] || d != fastDone[i] {
			t.Fatalf("read %d: slow path (%d hits, done %d) != fast path (%d hits, done %d)",
				r.ID, len(h), d, fastHits[i], fastDone[i])
		}
	}
	if fastU.OccAccesses() != slowU.OccAccesses() {
		t.Fatalf("occ traffic diverges: fast %d, slow %d",
			fastU.OccAccesses(), slowU.OccAccesses())
	}
}

func TestUnitStateTransitions(t *testing.T) {
	t.Parallel()
	a, _, hbm := setup(t)
	u := New(3, a, hbm, DefaultCostModel())
	if u.State().String() != "idle" {
		t.Errorf("initial state = %v", u.State())
	}
	u.SetBusy(10)
	if u.State().String() != "busy" || !u.Tracker.Busy() {
		t.Error("SetBusy failed")
	}
	u.SetIdle(20)
	if u.State().String() != "idle" || u.Tracker.Busy() {
		t.Error("SetIdle failed")
	}
	if u.Tracker.BusyCycles(100) != 10 {
		t.Errorf("busy cycles = %d", u.Tracker.BusyCycles(100))
	}
	u.Stop()
	if u.State().String() != "stop" {
		t.Error("Stop failed")
	}
	if u.ID() != 3 {
		t.Error("ID wrong")
	}
}

func TestProcessChargesHBM(t *testing.T) {
	t.Parallel()
	a, ref, hbm := setup(t)
	u := New(0, a, hbm, DefaultCostModel())
	reads := genome.Simulate(ref, 20, genome.ShortReadConfig(5))
	for _, r := range reads {
		u.Process(0, r.ID, r.Seq)
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
	overlap := New(0, a, mem.NewHBM(mem.HBM1()), DefaultCostModel())
	serialCost := DefaultCostModel()
	serialCost.SerializeDRAM = true
	serial := New(1, a, mem.NewHBM(mem.HBM1()), serialCost)
	slower := 0
	for _, r := range reads {
		_, d1 := overlap.Process(0, r.ID, r.Seq)
		_, d2 := serial.Process(0, r.ID, r.Seq)
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
