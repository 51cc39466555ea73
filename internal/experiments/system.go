package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/accel"
	"nvwa/internal/baselines"
	"nvwa/internal/coordinator"
	"nvwa/internal/obs"
)

// Fig11Row is one system of the throughput comparison.
type Fig11Row struct {
	Name string
	// Cycles and ThroughputKReads are simulated (zero for
	// paper-reported rows).
	Cycles           int64
	ThroughputKReads float64
	// SpeedupVsBaseline is relative to the simulated SUs+EUs system.
	SpeedupVsBaseline float64
	// Simulated distinguishes measured rows from paper-quoted ones.
	Simulated bool
}

// Fig11Result is the Fig. 11 comparison plus the ablation study.
type Fig11Result struct {
	Rows []Fig11Row
	// Ablations maps each mechanism to its cumulative-build-up factor:
	// the speedup gained when it is added on top of the previously
	// enabled mechanisms, in the paper's order HUS -> OCRA -> HA
	// (paper: 3.32x, 1.73x, 2.38x, multiplying to the 13.6x total).
	Ablations map[string]float64
	// AddOne maps each mechanism to its speedup when added alone to
	// the SUs+EUs baseline.
	AddOne map[string]float64
	// TotalSpeedup is full NvWa over SUs+EUs (paper: ~13.6x).
	TotalSpeedup float64
	// SoftwareKReads is the measured multi-threaded software pipeline
	// throughput on this host (the CPU-baseline stand-in).
	SoftwareKReads float64
	// CPUSpeedup is simulated NvWa over the measured software baseline
	// (paper: 493x over 16-thread BWA-MEM).
	CPUSpeedup float64
}

// Fig11With runs the simulated comparison and ablations on the
// workload under an explicit execution policy: the six
// independent accelerator configurations (baseline, the cumulative
// build-up, the add-one-in ablations, full NvWa) fan across the
// runner's worker pool, and memo replay removes the redundant
// per-config functional recomputation. Output is byte-identical to
// the serial policy.
func Fig11With(env *Env, r *Runner) Fig11Result {
	res := Fig11Result{Ablations: map[string]float64{}, AddOne: map[string]float64{}}

	// The five ablation configs plus full NvWa are independent systems
	// over the same workload — exactly the paper's Fig. 11 columns.
	withHUS := env.BaselineOptions()
	withHUS.Config.EUClasses = env.Classes
	withOCRA := withHUS
	withOCRA.SeedStrategy = accel.OneCycle
	ocraOnly := env.BaselineOptions()
	ocraOnly.SeedStrategy = accel.OneCycle
	haOnly := env.BaselineOptions()
	haOnly.AllocStrategy = coordinator.Grouped

	configs := []accel.Options{
		env.BaselineOptions(), // base
		env.NvWaOptions(),     // full
		withHUS,
		withOCRA,
		ocraOnly,
		haOnly,
	}
	reps := make([]*accel.Report, len(configs))
	r.Map(len(configs), func(i int) { reps[i] = env.runWith(configs[i], r) })
	base, full, hus, ocra := reps[0], reps[1], reps[2], reps[3]

	res.TotalSpeedup = float64(base.Cycles) / float64(full.Cycles)

	// Cumulative build-up in the paper's order (the three reported
	// factors multiply to the total by construction):
	// SUs+EUs -> +HUS -> +HUS+OCRA -> +HUS+OCRA+HA (= NvWa).
	res.Ablations["Hybrid Units Strategy"] = float64(base.Cycles) / float64(hus.Cycles)
	res.Ablations["One-Cycle Read Allocator"] = float64(hus.Cycles) / float64(ocra.Cycles)
	res.Ablations["Hits Allocator"] = float64(ocra.Cycles) / float64(full.Cycles)

	// Add-one-in: enable one mechanism alone on top of the baseline.
	res.AddOne["Hybrid Units Strategy"] = float64(base.Cycles) / float64(hus.Cycles)
	res.AddOne["One-Cycle Read Allocator"] = float64(base.Cycles) / float64(reps[4].Cycles)
	res.AddOne["Hits Allocator"] = float64(base.Cycles) / float64(reps[5].Cycles)

	swTput := env.softwareRPS(r)
	res.SoftwareKReads = swTput / 1000
	if swTput > 0 {
		res.CPUSpeedup = full.ThroughputReadsPerSec / swTput
	}

	res.Rows = append(res.Rows,
		Fig11Row{Name: "SUs+EUs (simulated)", Cycles: base.Cycles, ThroughputKReads: base.ThroughputReadsPerSec / 1000, SpeedupVsBaseline: 1, Simulated: true},
		Fig11Row{Name: "SUs+EUs+HUS (simulated)", Cycles: hus.Cycles, ThroughputKReads: hus.ThroughputReadsPerSec / 1000, SpeedupVsBaseline: float64(base.Cycles) / float64(hus.Cycles), Simulated: true},
		Fig11Row{Name: "SUs+EUs+HUS+OCRA (simulated)", Cycles: ocra.Cycles, ThroughputKReads: ocra.ThroughputReadsPerSec / 1000, SpeedupVsBaseline: float64(base.Cycles) / float64(ocra.Cycles), Simulated: true},
		Fig11Row{Name: "NvWa (simulated)", Cycles: full.Cycles, ThroughputKReads: full.ThroughputReadsPerSec / 1000, SpeedupVsBaseline: res.TotalSpeedup, Simulated: true},
	)
	for _, p := range baselines.Platforms() {
		res.Rows = append(res.Rows, Fig11Row{
			Name:             p.Name + " (paper)",
			ThroughputKReads: p.ThroughputKReads,
		})
	}
	return res
}

// Format renders the comparison table.
func (r Fig11Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — end-to-end throughput comparison\n")
	for _, row := range r.Rows {
		mark := "reported"
		if row.Simulated {
			mark = "simulated"
		}
		fmt.Fprintf(&b, "  %-32s %10.0f Kreads/s", row.Name, row.ThroughputKReads)
		if row.Simulated {
			fmt.Fprintf(&b, "  %6.2fx vs SUs+EUs", row.SpeedupVsBaseline)
		}
		fmt.Fprintf(&b, "  [%s]\n", mark)
	}
	fmt.Fprintf(&b, "  per-mechanism speedups (paper: HUS 3.32x, OCRA 1.73x, HA 2.38x):\n")
	for _, k := range []string{"Hybrid Units Strategy", "One-Cycle Read Allocator", "Hits Allocator"} {
		fmt.Fprintf(&b, "    %-26s cumulative %.2fx, add-one-in %.2fx\n", k, r.Ablations[k], r.AddOne[k])
	}
	fmt.Fprintf(&b, "  total NvWa / SUs+EUs: %.2fx (paper: 13.64x)\n", r.TotalSpeedup)
	fmt.Fprintf(&b, "  measured software pipeline: %.1f Kreads/s; NvWa speedup %.0fx (paper: 493x vs 16-thread BWA-MEM)\n",
		r.SoftwareKReads, r.CPUSpeedup)
	return b.String()
}

// Fig12Result is the resource-utilization comparison.
type Fig12Result struct {
	NvWa, Baseline *accel.Report
}

// Fig12 runs NvWa and SUs+EUs on the workload (the paper uses 4000
// reads for this figure) and reports utilizations, time series, and
// assignment accuracy.
func Fig12(env *Env) Fig12Result {
	return Fig12Result{NvWa: env.RunNvWa(), Baseline: env.RunBaseline()}
}

// Fig12Observed is Fig12 with an observer attached to the NvWa run, so
// the CLI can export the timeline and metrics snapshot behind the
// figure (-trace/-metrics). Observation does not perturb the
// simulation: the result is identical to Fig12's.
func Fig12Observed(env *Env, ob *obs.Observer) Fig12Result {
	return Fig12Result{NvWa: env.RunNvWaObserved(ob), Baseline: env.RunBaseline()}
}

// Format renders utilization summaries, series excerpts, and the
// per-class optimal-assignment table.
func (r Fig12Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 12 — resource utilization (NvWa vs SUs+EUs)\n")
	fmt.Fprintf(&b, "  SU utilization:  NvWa %.1f%% (paper 97.1%%)   SUs+EUs %.1f%% (paper 23.5%%)\n",
		100*r.NvWa.SUUtil, 100*r.Baseline.SUUtil)
	fmt.Fprintf(&b, "  EU utilization:  NvWa %.1f%% (paper 85.4%%)   SUs+EUs %.1f%% (paper 32.3%%)\n",
		100*r.NvWa.EUUtil, 100*r.Baseline.EUUtil)
	fmt.Fprintf(&b, "  optimal-unit assignment: NvWa %.1f%% vs SUs+EUs %.1f%% (paper: 87.7/64.1/56.9/87.6%% per class vs 14.5%%)\n",
		100*r.NvWa.AllocStats.OptimalFraction(), 100*r.Baseline.AllocStats.OptimalFraction())
	for ci, u := range r.NvWa.PerClassEUUtil {
		fmt.Fprintf(&b, "    EU class %d utilization: %.1f%%\n", ci, 100*u)
	}
	st := r.NvWa.AllocStats
	for i := range st.PerClassTotal {
		if st.PerClassTotal[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "    class %d: %.1f%% optimal (%d hits)\n",
			i, 100*float64(st.PerClassOptimal[i])/float64(st.PerClassTotal[i]), st.PerClassTotal[i])
	}
	b.WriteString("  SU utilization series (NvWa):     " + sparkline(r.NvWa.SUSeries) + "\n")
	b.WriteString("  SU utilization series (SUs+EUs):  " + sparkline(r.Baseline.SUSeries) + "\n")
	b.WriteString("  EU utilization series (NvWa):     " + sparkline(r.NvWa.EUSeries) + "\n")
	b.WriteString("  EU utilization series (SUs+EUs):  " + sparkline(r.Baseline.EUSeries) + "\n")
	return b.String()
}

// sparkline renders a utilization series as text bars.
func sparkline(xs []float64) string {
	glyphs := []rune(" .:-=+*#%@")
	var b strings.Builder
	step := 1
	if len(xs) > 60 {
		step = len(xs) / 60
	}
	for i := 0; i < len(xs); i += step {
		v := xs[i]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		b.WriteRune(glyphs[int(v*float64(len(glyphs)-1)+0.5)])
	}
	return b.String()
}
