// Package energy models NvWa's area and power (paper Table II). The
// paper obtained these numbers from Chisel RTL synthesized with a
// 14 nm library plus CACTI 7 for SRAMs (scaled 32 nm -> 14 nm); those
// tools are unavailable here, so the per-module constants are taken
// from Table II itself and exposed through an analytical model that
// supports the paper's accounting: totals, the with/without-HBM
// variants, energy-per-read comparisons, and the Coordinator
// power-vs-interval-count curve of Fig. 13(b).
package energy

import (
	"fmt"
	"math"
)

// Component is one Table II row.
type Component struct {
	Module   string
	Category string
	AreaMM2  float64
	PowerW   float64
}

// TableII returns the paper's Table II breakdown.
func TableII() []Component {
	return []Component{
		{"SUs", "Logic", 0.5, 0.36},
		{"SUs", "Table SRAM", 2.16, 0.71},
		{"EUs", "Logic", 1.62, 0.30},
		{"EUs", "Table SRAM", 21.15, 3.614},
		{"Seeding Scheduler", "SPM", 0.13, 0.04},
		{"Seeding Scheduler", "Logic", 0.1, 0.072},
		{"Extension Scheduler", "Table SRAM", 0.065, 0.021},
		{"Extension Scheduler", "Logic", 0.23, 0.165},
		{"Coordinator", "SRAM Buffer", 0.782, 0.257},
		{"Coordinator", "Logic", 0.273, 0.215},
	}
}

// HBMPowerW is the HBM 1.0 interface power implied by the paper's
// 7.685 W total versus the 5.754 W core.
const HBMPowerW = 7.685 - 5.754

// TotalArea sums component areas in mm^2 (paper: 27.009).
func TotalArea(cs []Component) float64 {
	t := 0.0
	for _, c := range cs {
		t += c.AreaMM2
	}
	return t
}

// TotalPower sums component powers in watts (paper: 5.754).
func TotalPower(cs []Component) float64 {
	t := 0.0
	for _, c := range cs {
		t += c.PowerW
	}
	return t
}

// SchedulerShare returns the area and power fractions of the three
// scheduling blocks (paper: 5.84% of area, 13.38% of power).
func SchedulerShare(cs []Component) (areaFrac, powerFrac float64) {
	var a, p, ta, tp float64
	for _, c := range cs {
		ta += c.AreaMM2
		tp += c.PowerW
		switch c.Module {
		case "Seeding Scheduler", "Extension Scheduler", "Coordinator":
			a += c.AreaMM2
			p += c.PowerW
		}
	}
	return a / ta, p / tp
}

// EnergyPerReadJ converts power and throughput into energy per read.
func EnergyPerReadJ(powerW, readsPerSec float64) float64 {
	if readsPerSec <= 0 {
		return 0
	}
	return powerW / readsPerSec
}

// CoordinatorPower models the Fig. 13(b) trade-off: the buffer SRAM
// power scales with the buffer depth, and the allocation-logic power
// grows with the number of hybrid intervals (more classes mean wider
// comparators, more groups, and a deeper match network). At the
// paper's design point (4 intervals, depth 1024) it returns Table II's
// 0.257 W buffer + 0.215 W logic.
func CoordinatorPower(intervals, bufferDepth int) (bufferW, logicW float64) {
	if intervals < 1 {
		intervals = 1
	}
	if bufferDepth < 1 {
		bufferDepth = 1
	}
	bufferW = 0.257 * float64(bufferDepth) / 1024
	// Logic grows slightly super-linearly in the class count: sorting
	// and matching networks are O(n log n) in comparator count.
	n := float64(intervals)
	ref := 4.0
	logicW = 0.215 * (n * math.Log2(n+1)) / (ref * math.Log2(ref+1))
	return
}

// FormatTable renders the Table II breakdown with totals.
func FormatTable(cs []Component) string {
	out := fmt.Sprintf("%-20s %-12s %10s %9s\n", "Module", "Category", "Area(mm^2)", "Power(W)")
	for _, c := range cs {
		out += fmt.Sprintf("%-20s %-12s %10.3f %9.3f\n", c.Module, c.Category, c.AreaMM2, c.PowerW)
	}
	out += fmt.Sprintf("%-20s %-12s %10.3f %9.3f\n", "Total", "N/A", TotalArea(cs), TotalPower(cs))
	out += fmt.Sprintf("%-20s %-12s %10s %9.3f\n", "Total + HBM 1.0", "N/A", "-", TotalPower(cs)+HBMPowerW)
	return out
}
