package eu

import (
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/systolic"
)

func setup(t *testing.T) (*pipeline.Aligner, *genome.Reference) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), 50000, 1)
	return pipeline.New(ref.Seq, pipeline.DefaultOptions()), ref
}

// software returns every hit of every read with its software extension
// record, expanded: the (Extension, ExtendCost) pairs a unit charges.
func software(a *pipeline.Aligner, reads []genome.Read) ([]core.Extension, []pipeline.ExtendCost) {
	var exts []core.Extension
	var costs []pipeline.ExtendCost
	for _, r := range reads {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		for k, e := range a.ExtendAll(r.Seq, hits, nil) {
			exts = append(exts, e.Ext(hits[k]))
			costs = append(costs, e.Cost())
		}
	}
	return exts, costs
}

// TestExecuteMatchesSoftwareExtension: charging each software
// extension record on a unit of any PE width completes after at least
// the load cost plus the Formula 3 fill of the task the record
// describes, and the unit counts every task.
func TestExecuteMatchesSoftwareExtension(t *testing.T) {
	t.Parallel()
	a, ref := setup(t)
	exts, costs := software(a, genome.Simulate(ref, 40, genome.ShortReadConfig(2)))
	units := []*Unit{
		New(0, 0, 16, DefaultCostModel()),
		New(1, 1, 32, DefaultCostModel()),
		New(2, 2, 64, DefaultCostModel()),
		New(3, 3, 128, DefaultCostModel()),
	}
	for i := range exts {
		u := units[i%len(units)]
		r, _ := costs[i].TaskDims(exts[i].Hit)
		floor := u.cost.LoadCycles + int64(systolic.Latency(r, exts[i].Hit.SeedLen(), u.PEs()))
		if done := u.Charge(0, &exts[i], costs[i]); done < floor {
			t.Fatalf("task %d on %d PEs: completion %d below load + fill %d", i, u.PEs(), done, floor)
		}
	}
	tasks := 0
	for _, u := range units {
		tasks += u.Tasks()
	}
	if tasks != len(exts) {
		t.Fatalf("units counted %d tasks, charged %d", tasks, len(exts))
	}
}

func TestExecuteLatencyFollowsFormula3(t *testing.T) {
	t.Parallel()
	a, ref := setup(t)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(3))
	small := New(0, 0, 16, CostModel{})
	large := New(1, 3, 128, CostModel{})
	exts, costs := software(a, reads)
	for i := range exts {
		h := exts[i].Hit
		// The charged fill covers at least the seed span streaming
		// through the array (Formula 3 with R=Q=span).
		minFill := int64(systolic.Latency(h.SeedLen(), h.SeedLen(), 16))
		doneSmall := small.Charge(0, &exts[i], costs[i])
		doneLarge := large.Charge(0, &exts[i], costs[i])
		if doneSmall < minFill {
			t.Fatalf("small-unit completion %d below Formula 3 floor %d", doneSmall, minFill)
		}
		// Long extensions must be slower on the small unit than on the
		// large one (multiple passes). Short extensions are
		// latency-comparable, but the large unit wastes PEs.
		if h.SchedLen() > 64 && doneSmall <= doneLarge {
			t.Errorf("hit len %d: 16-PE done %d not slower than 128-PE %d",
				h.SchedLen(), doneSmall, doneLarge)
		}
	}
}

func TestExecuteAccountsPEUtilization(t *testing.T) {
	t.Parallel()
	a, ref := setup(t)
	reads := genome.Simulate(ref, 20, genome.ShortReadConfig(4))
	u := New(0, 3, 128, DefaultCostModel())
	exts, costs := software(a, reads)
	for i := range exts {
		u.Charge(0, &exts[i], costs[i])
	}
	if u.Tasks() == 0 {
		t.Skip("no hits produced")
	}
	util := u.PEUtilization()
	if util <= 0 || util > 1 {
		t.Errorf("PE utilization = %v", util)
	}
	// 101 bp reads have extensions far below 128 bases, so a 128-PE
	// unit must show substantial internal waste.
	if util > 0.9 {
		t.Errorf("128-PE unit utilization %v implausibly high for short hits", util)
	}
}

func TestUnitStateAndAccessors(t *testing.T) {
	t.Parallel()
	u := New(7, 2, 64, DefaultCostModel())
	if u.ID() != 7 || u.Class() != 2 || u.PEs() != 64 {
		t.Error("accessors wrong")
	}
	u.SetBusy(5)
	if u.State().String() != "busy" {
		t.Error("SetBusy failed")
	}
	u.SetIdle(9)
	if u.State().String() != "idle" {
		t.Error("SetIdle failed")
	}
	u.Stop()
	if u.State().String() != "stop" {
		t.Error("Stop failed")
	}
	if u.PEUtilization() != 0 {
		t.Error("utilization of fresh unit should be 0")
	}
}
