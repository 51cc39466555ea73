package energy

import (
	"math"
	"testing"
)

func TestEstimateRunFullyBusyApproachesTableII(t *testing.T) {
	// At 100% utilization everywhere and no HBM, the average power must
	// equal the Table II total.
	e, err := EstimateRun(RunStats{Cycles: 1e9, ClockGHz: 1, Reads: 1000, SUUtil: 1, EUUtil: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.AvgPowerW-5.754) > 1e-9 {
		t.Errorf("fully-busy power = %v, want 5.754", e.AvgPowerW)
	}
	if math.Abs(e.Seconds-1.0) > 1e-12 {
		t.Errorf("seconds = %v", e.Seconds)
	}
	if e.PerReadJ <= 0 {
		t.Error("no per-read energy")
	}
}

func TestEstimateRunIdleBurnsOnlyLeakage(t *testing.T) {
	e, _ := EstimateRun(RunStats{Cycles: 1e9, ClockGHz: 1, Reads: 1, SUUtil: 0, EUUtil: 0})
	if math.Abs(e.AvgPowerW-5.754*staticFraction) > 1e-9 {
		t.Errorf("idle power = %v, want leakage only", e.AvgPowerW)
	}
	if e.DynamicJ != 0 {
		t.Errorf("idle dynamic energy = %v", e.DynamicJ)
	}
}

func TestEstimateRunHBMAdds(t *testing.T) {
	base, _ := EstimateRun(RunStats{Cycles: 1e6, ClockGHz: 1, Reads: 10, SUUtil: 0.5, EUUtil: 0.5})
	withMem, _ := EstimateRun(RunStats{Cycles: 1e6, ClockGHz: 1, Reads: 10, SUUtil: 0.5, EUUtil: 0.5, HBMEnergyPJ: 1e9})
	if withMem.TotalJ-base.TotalJ != 1e-3 {
		t.Errorf("HBM energy delta = %v, want 1 mJ", withMem.TotalJ-base.TotalJ)
	}
}

func TestEstimateRunErrors(t *testing.T) {
	if _, err := EstimateRun(RunStats{}); err == nil {
		t.Error("zero-duration run accepted")
	}
}
