package energy

import "fmt"

// RunStats is the subset of a simulation report the energy estimator
// consumes (kept as a plain struct so this package stays independent
// of the accelerator packages).
type RunStats struct {
	// Cycles is the makespan at the configured clock.
	Cycles int64
	// ClockGHz converts cycles to seconds.
	ClockGHz float64
	// Reads aligned.
	Reads int
	// HBMEnergyPJ is the measured off-chip access energy.
	HBMEnergyPJ float64
	// SUUtil and EUUtil scale the compute blocks' dynamic power.
	SUUtil, EUUtil float64
}

// Estimate combines the Table II static model with a run's measured
// activity: static (leakage) power burns for the whole makespan,
// dynamic power scales with each block's utilization, and HBM energy
// is taken from the memory model's per-access accounting.
type Estimate struct {
	// Seconds is the run's wall time at the modelled clock.
	Seconds float64
	// StaticJ, DynamicJ, HBMJ decompose the total energy.
	StaticJ, DynamicJ, HBMJ float64
	// TotalJ is their sum.
	TotalJ float64
	// PerReadJ is TotalJ / Reads.
	PerReadJ float64
	// AvgPowerW is TotalJ / Seconds.
	AvgPowerW float64
}

// staticFraction is the leakage share of each block's Table II power;
// 14 nm SRAM-heavy designs leak roughly a third of their budget.
const staticFraction = 0.35

// EstimateRun evaluates the model for one simulation run.
func EstimateRun(rs RunStats) (Estimate, error) {
	if rs.Cycles <= 0 || rs.ClockGHz <= 0 {
		return Estimate{}, fmt.Errorf("energy: run has no duration")
	}
	var e Estimate
	e.Seconds = float64(rs.Cycles) / (rs.ClockGHz * 1e9)

	var su, eu, sched float64
	for _, c := range TableII() {
		switch c.Module {
		case "SUs":
			su += c.PowerW
		case "EUs":
			eu += c.PowerW
		default:
			sched += c.PowerW
		}
	}
	total := su + eu + sched
	e.StaticJ = total * staticFraction * e.Seconds
	// Dynamic power scales with activity; the scheduler blocks track
	// overall activity (approximated by the busier of the two sides).
	act := rs.SUUtil
	if rs.EUUtil > act {
		act = rs.EUUtil
	}
	e.DynamicJ = (1 - staticFraction) * e.Seconds *
		(su*rs.SUUtil + eu*rs.EUUtil + sched*act)
	e.HBMJ = rs.HBMEnergyPJ * 1e-12
	e.TotalJ = e.StaticJ + e.DynamicJ + e.HBMJ
	if rs.Reads > 0 {
		e.PerReadJ = e.TotalJ / float64(rs.Reads)
	}
	e.AvgPowerW = e.TotalJ / e.Seconds
	return e, nil
}
