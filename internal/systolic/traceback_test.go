package systolic

import "testing"

func TestTracebackModelZeroValueIsFlatWalk(t *testing.T) {
	var m TracebackModel
	for _, tc := range []struct{ r, q int }{{0, 0}, {100, 50}, {3, 7}} {
		c := m.Cost(1<<20, tc.r+tc.q)
		if c.Spilled || c.SpillCycles != 0 {
			t.Fatalf("zero model spilled for r=%d q=%d: %+v", tc.r, tc.q, c)
		}
		if want := int64(tc.r + tc.q); c.Cycles != want {
			t.Fatalf("zero model Cost(r=%d,q=%d).Cycles = %d, want flat %d",
				tc.r, tc.q, c.Cycles, want)
		}
	}
}

func TestTracebackModelFitsWithoutSpill(t *testing.T) {
	m := DefaultTracebackModel()
	fit := sramCells(m)
	if fit <= 0 {
		t.Fatalf("default model has no SRAM capacity: %+v", m)
	}
	c := m.Cost(fit, 200)
	if c.Spilled || c.SpillCycles != 0 {
		t.Fatalf("matrix at exactly SRAM capacity spilled: %+v", c)
	}
	if c.Cycles != 200 {
		t.Fatalf("in-SRAM walk of 200 steps cost %d cycles, want 200", c.Cycles)
	}
}

func TestTracebackModelSpillChargesReadOut(t *testing.T) {
	m := DefaultTracebackModel()
	fit := sramCells(m)
	// One burst worth of overflow: SpillReadBits/BitsPerCell extra cells.
	over := fit + m.SpillReadBits/m.BitsPerCell
	c := m.Cost(over, 100)
	if !c.Spilled {
		t.Fatalf("matrix over SRAM capacity did not spill: %+v", c)
	}
	if c.SpillCycles != 1 {
		t.Fatalf("one-burst overflow cost %d spill cycles, want 1", c.SpillCycles)
	}
	if c.Cycles != 100+c.SpillCycles {
		t.Fatalf("Cycles = %d, want walk 100 + spill %d", c.Cycles, c.SpillCycles)
	}

	// Spill cost grows linearly in the overflow, at SpillReadBits per cycle.
	big := m.Cost(fit+1000*m.SpillReadBits/m.BitsPerCell, 100)
	if big.SpillCycles != 1000 {
		t.Fatalf("1000-burst overflow cost %d spill cycles, want 1000", big.SpillCycles)
	}
}

func TestTracebackModelStepsPerCycle(t *testing.T) {
	m := TracebackModel{StepsPerCycle: 4}
	if c := m.Cost(0, 10); c.Cycles != 3 {
		t.Fatalf("10 steps at 4/cycle = %d cycles, want 3", c.Cycles)
	}
	// Degenerate rates clamp to 1 step per cycle.
	m.StepsPerCycle = -2
	if c := m.Cost(0, 10); c.Cycles != 10 {
		t.Fatalf("10 steps at clamped rate = %d cycles, want 10", c.Cycles)
	}
	if c := m.Cost(-5, -3); c.Cycles != 0 || c.Spilled {
		t.Fatalf("negative inputs should cost nothing: %+v", c)
	}
}

// sramCells is the largest pointer matrix (in DP cells) m holds
// without spilling.
func sramCells(m TracebackModel) int { return m.SRAMBytes * 8 / m.BitsPerCell }
