package eu

import (
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/pipeline"
	"nvwa/internal/systolic"
)

// charge books one canned task on u at cycle now: hit h with the
// extension result ext (its Hit is set to h) and the processed extents
// cost, so tests can pin the cycle model against hand-computed spans.
func charge(u *Unit, now int64, h core.Hit, ext core.Extension, cost pipeline.ExtendCost) int64 {
	ext.Hit = h
	return u.Charge(now, &ext, cost)
}

// The headline regression: the traceback walk must charge the
// alignment's *read span*, not the seed length. A full-coverage
// alignment walks the whole read; the old seed-length charge
// undercharged it by the flank lengths. Cycle counts are pinned
// exactly for both a full-coverage alignment and a z-dropped stub.
func TestExecuteTracebackChargesAlignedReadSpan(t *testing.T) {
	t.Parallel()
	h := core.Hit{ReadBeg: 40, ReadEnd: 59, RefPos: 1040, ReadLen: 100}

	// Full coverage: both flanks extend to the read edges.
	fullExt := core.Extension{
		RefBeg: 1000, RefEnd: 1100, // refSpan 100
		ReadBeg: 0, ReadEnd: 100, // readSpan 100
	}
	fullCost := pipeline.ExtendCost{LeftRows: 40, LeftQ: 40, RightRows: 41, RightQ: 41}
	// Z-dropped stub: flanks die after two rows each.
	stubExt := core.Extension{
		RefBeg: 1038, RefEnd: 1061, // refSpan 23
		ReadBeg: 38, ReadEnd: 61, // readSpan 23
	}
	stubCost := pipeline.ExtendCost{LeftRows: 2, LeftQ: 2, RightRows: 2, RightQ: 2}

	// CostModel zero value: no load cost, storage-free traceback — the
	// walk is exactly refSpan + readSpan cycles.
	uFull := New(0, 3, 128, CostModel{})
	done := charge(uFull, 0, h, fullExt, fullCost)
	// Task: 19-base seed + 40 + 41 flank rows = 100 rows, Q = seed.
	fill := int64(systolic.Latency(100, h.SeedLen(), 128))
	if wantFill := int64(227); fill != wantFill {
		t.Fatalf("fill precondition drifted: %d, want %d", fill, wantFill)
	}
	if want := fill + int64(100+100); done != want {
		t.Fatalf("full-coverage completion %d, want %d (fill %d + walk over refSpan+readSpan %d)",
			done, want, fill, want-fill)
	}
	if uFull.TracebackCycles() != 200 {
		t.Fatalf("full-coverage traceback charged %d cycles, want 200 (100 ref + 100 read)",
			uFull.TracebackCycles())
	}

	uStub := New(1, 3, 128, CostModel{})
	done = charge(uStub, 0, h, stubExt, stubCost)
	fill = int64(systolic.Latency(23, h.SeedLen(), 128))
	if want := fill + int64(23+23); done != want {
		t.Fatalf("z-dropped completion %d, want %d", done, want)
	}
	if uStub.TracebackCycles() != 46 {
		t.Fatalf("z-dropped traceback charged %d cycles, want 46 (23 ref + 23 read)",
			uStub.TracebackCycles())
	}

	// The buggy charge (refSpan + seed length) for the full-coverage
	// case would have been 119 — assert we are nowhere near it.
	if c := uFull.TracebackCycles(); c == int64(100+h.SeedLen()) {
		t.Fatalf("traceback still charges the seed length (%d cycles)", c)
	}
}

// The pointer-matrix model must spill tasks whose computed cells
// exceed the array SRAM and charge the read-out on top of the walk.
func TestExecuteTracebackSpillsLargeMatrices(t *testing.T) {
	t.Parallel()
	h := core.Hit{ReadBeg: 100, ReadEnd: 400, RefPos: 5000, ReadLen: 1000}
	m := systolic.DefaultTracebackModel()
	// 300 flank rows × 300 columns each side ≈ 180k cells: over the
	// 64k-cell SRAM budget of the default model.
	bigExt := core.Extension{
		RefBeg: 4700, RefEnd: 5700,
		ReadBeg: 0, ReadEnd: 1000,
	}
	bigCost := pipeline.ExtendCost{LeftRows: 300, LeftQ: 300, RightRows: 300, RightQ: 300}
	u := New(0, 3, 128, CostModel{Traceback: m})
	done := charge(u, 0, h, bigExt, bigCost)
	if u.TracebackSpills() != 1 {
		t.Fatalf("large matrix did not spill (spills=%d)", u.TracebackSpills())
	}
	cells := 300*300 + 300*300 + h.SeedLen()
	want := m.Cost(cells, 1000+1000)
	if u.TracebackSpillCycles() != want.SpillCycles || want.SpillCycles == 0 {
		t.Fatalf("spill read-out charged %d cycles, want %d (non-zero)",
			u.TracebackSpillCycles(), want.SpillCycles)
	}
	if u.TracebackCycles() != want.Cycles {
		t.Fatalf("traceback charged %d cycles, want %d", u.TracebackCycles(), want.Cycles)
	}
	fill := int64(systolic.Latency(h.SeedLen()+600, h.SeedLen(), 128))
	if done != fill+want.Cycles {
		t.Fatalf("completion %d, want fill %d + traceback %d", done, fill, want.Cycles)
	}
}

// PE-occupancy audit: busyPECycles' denominator and the obs.EUExtend
// busy interval must agree — both span load + fill + traceback.
func TestExecuteOccupancyMatchesBusyInterval(t *testing.T) {
	t.Parallel()
	h := core.Hit{ReadBeg: 40, ReadEnd: 59, RefPos: 1040, ReadLen: 100}
	ext := core.Extension{
		RefBeg: 1000, RefEnd: 1100,
		ReadBeg: 0, ReadEnd: 100,
	}
	cost := pipeline.ExtendCost{LeftRows: 40, LeftQ: 40, RightRows: 41, RightQ: 41}
	u := New(0, 3, 128, DefaultCostModel())
	var total int64
	for i := 0; i < 3; i++ {
		now := int64(i * 1000)
		done := charge(u, now, h, ext, cost)
		total += done - now // the exact interval EUExtend reports
	}
	if u.occupancy != total {
		t.Fatalf("occupancy %d != sum of busy intervals %d", u.occupancy, total)
	}
	// PEUtilization normalizes by that same occupancy.
	cells := 3 * (40*40 + 41*41 + h.SeedLen())
	want := float64(cells) / float64(128*total)
	if got := u.PEUtilization(); got != want {
		t.Fatalf("PEUtilization %v, want cells/(PEs×occupancy) = %v", got, want)
	}
}
