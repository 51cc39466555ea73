package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nvwa/internal/pipeline"
	"nvwa/internal/seedsched"
	"nvwa/internal/stats"
	"nvwa/internal/systolic"
)

// Fig2Result is the execution-time breakdown of the seeding and
// seed-extension phases for individual reads (paper Fig. 2).
type Fig2Result struct {
	// Profiles holds the per-read phase times.
	Profiles []pipeline.PhaseProfile
	// Total, Seeding and Extension summarise per-read times (ns).
	Total, Seeding, Extension stats.Summary
	// SeedingFraction summarises seeding's per-read share.
	SeedingFraction stats.Summary
	// ZoomLo and ZoomHi delimit the paper's zoom window (reads
	// 350-400 in Fig. 2(b)).
	ZoomLo, ZoomHi int
}

// Fig2 profiles per-read phase times over the first n reads of the
// workload, reproducing the diversity observation that motivates the
// paper: both the phase proportions and the total time vary per read.
// Each phase time is the read's minimum over hostPasses passes, which
// strips most of the host's scheduling noise from a single timing.
func Fig2(env *Env, n int) Fig2Result {
	if n > len(env.Reads) {
		n = len(env.Reads)
	}
	profiles := env.Aligner.Profile(env.Reads[:n])
	for k := 1; k < hostPasses; k++ {
		for i, p := range env.Aligner.Profile(env.Reads[:n]) {
			profiles[i].SeedingNS = min(profiles[i].SeedingNS, p.SeedingNS)
			profiles[i].ExtensionNS = min(profiles[i].ExtensionNS, p.ExtensionNS)
		}
	}
	res := Fig2Result{Profiles: profiles, ZoomLo: 350, ZoomHi: 400}
	if res.ZoomHi > n {
		res.ZoomLo, res.ZoomHi = 0, n
	}
	var tot, sd, ext, frac []float64
	for _, p := range profiles {
		tot = append(tot, float64(p.TotalNS()))
		sd = append(sd, float64(p.SeedingNS))
		ext = append(ext, float64(p.ExtensionNS))
		frac = append(frac, p.SeedingFraction())
	}
	res.Total = stats.Summarize(tot)
	res.Seeding = stats.Summarize(sd)
	res.Extension = stats.Summarize(ext)
	res.SeedingFraction = stats.Summarize(frac)
	return res
}

// Format renders the summary plus the zoom window rows.
func (r Fig2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — per-read execution-time breakdown (%d reads)\n", len(r.Profiles))
	fmt.Fprintf(&b, "  total   ns: mean=%.0f cv=%.2f min=%.0f max=%.0f\n", r.Total.Mean, r.Total.CV, r.Total.Min, r.Total.Max)
	fmt.Fprintf(&b, "  seeding ns: mean=%.0f cv=%.2f\n", r.Seeding.Mean, r.Seeding.CV)
	fmt.Fprintf(&b, "  extend  ns: mean=%.0f cv=%.2f\n", r.Extension.Mean, r.Extension.CV)
	fmt.Fprintf(&b, "  seeding fraction: mean=%.2f min=%.2f max=%.2f\n",
		r.SeedingFraction.Mean, r.SeedingFraction.Min, r.SeedingFraction.Max)
	fmt.Fprintf(&b, "  zoom (reads %d-%d):\n", r.ZoomLo, r.ZoomHi)
	for i := r.ZoomLo; i < r.ZoomHi && i < len(r.Profiles); i++ {
		p := r.Profiles[i]
		fmt.Fprintf(&b, "    read %4d: seed=%7dns ext=%7dns (%.0f%% seeding, %d hits)\n",
			p.ReadID, p.SeedingNS, p.ExtensionNS, 100*p.SeedingFraction(), p.Hits)
	}
	return b.String()
}

// Fig5Result compares Read-in-Batch against One-Cycle scheduling on a
// toy workload (paper Fig. 5).
type Fig5Result struct {
	Durations        []int
	Units            int
	BatchMakespan    int
	OneCycleMakespan int
	BatchUtilization float64
	OneCycleUtilized float64
}

// fig5Durations is a skewed toy workload like the paper's example, and
// fig5Units the number of SUs it runs on.
var fig5Durations = []int{90, 35, 35, 20, 60, 25, 45, 30, 80, 20, 30, 40}

const fig5Units = 4

// Fig5 schedules the toy workload under both strategies.
func Fig5() Fig5Result {
	res := Fig5Result{Durations: fig5Durations, Units: fig5Units}
	res.BatchMakespan, res.BatchUtilization = simulateToy(seedsched.NewBatchAllocator(fig5Units).Allocate, fig5Durations, fig5Units)
	res.OneCycleMakespan, res.OneCycleUtilized = simulateToy(seedsched.NewOneCycleAllocator(fig5Units).Allocate, fig5Durations, fig5Units)
	return res
}

// simulateToy runs a cycle-stepped schedule of the durations through
// an allocator and returns makespan and average unit utilization.
func simulateToy(alloc func([]bool) []int, durations []int, units int) (int, float64) {
	freeAt := make([]int, units)
	busyCycles := 0
	issued := 0
	busy := make([]bool, units)
	clock := 0
	for issued < len(durations) {
		for i := range busy {
			busy[i] = freeAt[i] > clock
		}
		for i, a := range alloc(busy) {
			if a >= 0 && a < len(durations) {
				freeAt[i] = clock + 1 + durations[a]
				busyCycles += durations[a]
				issued++
			}
		}
		clock++
	}
	makespan := 0
	for _, f := range freeAt {
		if f > makespan {
			makespan = f
		}
	}
	return makespan, float64(busyCycles) / float64(makespan*units)
}

// Format renders the comparison.
func (r Fig5Result) Format() string {
	return fmt.Sprintf(
		"Fig. 5 — Read-in-Batch vs One-Cycle (%d units, %d tasks)\n"+
			"  read-in-batch: makespan=%d cycles, SU utilization=%.1f%%\n"+
			"  one-cycle:     makespan=%d cycles, SU utilization=%.1f%%\n"+
			"  one-cycle speedup: %.2fx\n",
		r.Units, len(r.Durations),
		r.BatchMakespan, 100*r.BatchUtilization,
		r.OneCycleMakespan, 100*r.OneCycleUtilized,
		float64(r.BatchMakespan)/float64(r.OneCycleMakespan))
}

// Fig6Row is one design point of the One-Cycle Read Allocator's
// PopCount-tree critical path (paper Fig. 6 / Sec. IV-B).
type Fig6Row struct {
	Units     int
	TreeDepth int
	// CriticalPathNS estimates the path delay at ~0.1 ns per tree
	// level plus mask AND and mux overhead.
	CriticalPathNS float64
	// MeetsOneGHz reports whether the allocator closes timing at 1 GHz.
	MeetsOneGHz bool
}

// Fig6 tabulates the allocator's critical path for the paper's range
// of 64-512 seeding units.
func Fig6() []Fig6Row {
	var rows []Fig6Row
	for _, n := range []int{64, 128, 256, 512} {
		a := seedsched.NewOneCycleAllocator(n)
		d := a.TreeDepth()
		ns := 0.05 + 0.09*float64(d) + 0.05 // AND stage + tree + mux
		rows = append(rows, Fig6Row{Units: n, TreeDepth: d, CriticalPathNS: ns, MeetsOneGHz: ns < 1.0})
	}
	return rows
}

// FormatFig6 renders the table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — One-Cycle Read Allocator critical path\n")
	b.WriteString("  units  tree-depth  est. path (ns)  1 GHz?\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d  %10d  %14.2f  %v\n", r.Units, r.TreeDepth, r.CriticalPathNS, r.MeetsOneGHz)
	}
	return b.String()
}

// Fig8Series is the systolic-array latency curve for one sequence
// length (paper Fig. 8).
type Fig8Series struct {
	Len  int
	PEs  []int
	Lat  []int
	Best int // PE count with minimal latency
}

// Fig8 computes Formula 3 latency for the paper's two lengths (9 and
// 64) across PE counts.
func Fig8() []Fig8Series {
	var out []Fig8Series
	for _, l := range []int{9, 64} {
		s := Fig8Series{Len: l}
		bestLat := int(^uint(0) >> 1)
		for p := 1; p <= 256; p++ {
			s.PEs = append(s.PEs, p)
			lat := systolic.Latency(l, l, p)
			s.Lat = append(s.Lat, lat)
			if lat < bestLat {
				bestLat, s.Best = lat, p
			}
		}
		out = append(out, s)
	}
	return out
}

// FormatFig8 renders sampled points of each curve.
func FormatFig8(series []Fig8Series) string {
	var b strings.Builder
	b.WriteString("Fig. 8 — systolic array latency vs number of PEs (Formula 3)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "  len=%d (best at P=%d):\n   ", s.Len, s.Best)
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			fmt.Fprintf(&b, " P=%d:%d", p, s.Lat[p-1])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9Result is the hybrid-vs-uniform toy schedule (paper Fig. 9(d)).
type Fig9Result struct {
	Hits          []int
	UniformPEs    []int
	HybridPEs     []int
	UniformCycles int
	HybridCycles  int
}

// Fig9 replays the paper's example: hits (20,40,10,65,127) on four
// uniform 64-PE units versus the hybrid pool (16,16,32,64,128). The
// paper reports 455 and 257 cycles.
func Fig9() Fig9Result {
	res := Fig9Result{
		Hits:       []int{20, 40, 10, 65, 127},
		UniformPEs: []int{64, 64, 64, 64},
		HybridPEs:  []int{16, 16, 32, 64, 128},
	}
	res.UniformCycles = scheduleHits(res.Hits, res.UniformPEs, false)
	res.HybridCycles = scheduleHits(res.Hits, res.HybridPEs, true)
	return res
}

// scheduleHits performs the Fig. 9(d) list schedule: every unit is
// ready to load at cycle 1; a hit completes at load+latency and the
// unit reloads the cycle after completing. Without matchOptimal,
// pending hits go to free units in arrival order (the uniform pool —
// every unit is interchangeable). With matchOptimal, each scheduling
// instant sorts the dispatched hits and the free units so the k-th
// shortest hit lands on the k-th smallest unit, the assignment the
// Hits Allocator's sort step produces.
func scheduleHits(hits, pes []int, matchOptimal bool) int {
	freeAt := make([]int, len(pes))
	for i := range freeAt {
		freeAt[i] = 1
	}
	pending := append([]int(nil), hits...)
	finish := 0
	for len(pending) > 0 {
		// Next scheduling instant: earliest load time.
		t := freeAt[0]
		for _, f := range freeAt {
			if f < t {
				t = f
			}
		}
		var idle []int
		for i, f := range freeAt {
			if f == t {
				idle = append(idle, i)
			}
		}
		k := len(idle)
		if k > len(pending) {
			k = len(pending)
		}
		batch := append([]int(nil), pending[:k]...)
		pending = pending[k:]
		if matchOptimal {
			sort.Ints(batch)
			sort.Slice(idle, func(a, b int) bool { return pes[idle[a]] < pes[idle[b]] })
		}
		for i, h := range batch {
			u := idle[i]
			done := t + systolic.Latency(h, h, pes[u])
			freeAt[u] = done + 1
			if done > finish {
				finish = done
			}
		}
	}
	return finish
}

// Format renders the toy comparison.
func (r Fig9Result) Format() string {
	return fmt.Sprintf(
		"Fig. 9 — hybrid vs uniform units on hits %v\n"+
			"  uniform %v: %d cycles (paper: 455)\n"+
			"  hybrid  %v: %d cycles (paper: 257)\n",
		r.Hits, r.UniformPEs, r.UniformCycles, r.HybridPEs, r.HybridCycles)
}
