package energy

import (
	"math"
	"strings"
	"testing"
)

func TestTableIITotalsMatchPaper(t *testing.T) {
	cs := TableII()
	// The component rows sum to 27.010; the paper's printed total is
	// 27.009 (rounding in the original table).
	if got := TotalArea(cs); math.Abs(got-27.009) > 0.002 {
		t.Errorf("total area = %v, want ~27.009 (Table II)", got)
	}
	if got := TotalPower(cs); math.Abs(got-5.754) > 1e-9 {
		t.Errorf("total power = %v, want 5.754 (Table II)", got)
	}
	if got := TotalPower(cs) + HBMPowerW; math.Abs(got-7.685) > 1e-9 {
		t.Errorf("power with HBM = %v, want 7.685", got)
	}
}

func TestSchedulerShareMatchesPaper(t *testing.T) {
	// Sec. V-C: schedulers are 5.84% of area and 13.38% of power.
	a, p := SchedulerShare(TableII())
	if math.Abs(a-0.0584) > 0.002 {
		t.Errorf("scheduler area share = %.4f, want ~0.0584", a)
	}
	if math.Abs(p-0.1338) > 0.002 {
		t.Errorf("scheduler power share = %.4f, want ~0.1338", p)
	}
}

func TestComputeUnitsDominate(t *testing.T) {
	// Sec. V-C: SUs+EUs account for 94.15% of area and 86.61% of power.
	var a, p float64
	for _, c := range TableII() {
		if c.Module == "SUs" || c.Module == "EUs" {
			a += c.AreaMM2
			p += c.PowerW
		}
	}
	if frac := a / TotalArea(TableII()); math.Abs(frac-0.9415) > 0.002 {
		t.Errorf("compute area share = %.4f", frac)
	}
	if frac := p / TotalPower(TableII()); math.Abs(frac-0.8661) > 0.002 {
		t.Errorf("compute power share = %.4f", frac)
	}
}

func TestEnergyPerRead(t *testing.T) {
	if got := EnergyPerReadJ(5.754, 49150e3); math.Abs(got-1.1707e-7) > 1e-10 {
		t.Errorf("energy/read = %v", got)
	}
	if EnergyPerReadJ(5, 0) != 0 {
		t.Error("zero throughput should give 0")
	}
}

func TestCoordinatorPowerDesignPoint(t *testing.T) {
	b, l := CoordinatorPower(4, 1024)
	if math.Abs(b-0.257) > 1e-9 || math.Abs(l-0.215) > 1e-9 {
		t.Errorf("design point power = %v + %v, want 0.257 + 0.215", b, l)
	}
}

func TestCoordinatorPowerTrends(t *testing.T) {
	// Fig. 13(b): buffer dominates at small interval counts, logic at
	// large ones; both monotone in their drivers.
	_, l1 := CoordinatorPower(1, 1024)
	_, l16 := CoordinatorPower(16, 1024)
	if l16 <= l1 {
		t.Error("logic power must grow with interval count")
	}
	b1, _ := CoordinatorPower(4, 256)
	b2, _ := CoordinatorPower(4, 4096)
	if b2 <= b1 {
		t.Error("buffer power must grow with depth")
	}
	b, l := CoordinatorPower(1, 1024)
	if b <= l {
		t.Error("at 1 interval the buffer should dominate")
	}
	b, l = CoordinatorPower(16, 1024)
	if l <= b {
		t.Error("at 16 intervals the logic should dominate")
	}
	// Degenerate inputs clamp.
	CoordinatorPower(0, 0)
}

func TestFormatTable(t *testing.T) {
	s := FormatTable(TableII())
	for _, want := range []string{"Coordinator", "27.01", "5.754", "7.685"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}
