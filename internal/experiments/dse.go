package experiments

import (
	"fmt"
	"math"
	"strings"

	"nvwa/internal/core"
	"nvwa/internal/energy"
	"nvwa/internal/extsched"
	"nvwa/internal/seq"
)

// Fig13aRow is one Hits-Buffer-depth design point.
type Fig13aRow struct {
	Depth            int
	ThroughputKReads float64
	SUUtil, EUUtil   float64
}

// Fig13aWith sweeps the Hits Buffer depth (the paper finds 1024 best)
// under an explicit execution policy: each depth design point is an
// independent simulation, fanned across the runner's workers with
// order-preserving row collection.
func Fig13aWith(env *Env, depths []int, r *Runner) []Fig13aRow {
	if len(depths) == 0 {
		depths = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	rows := make([]Fig13aRow, len(depths))
	r.Map(len(depths), func(i int) {
		o := env.NvWaOptions()
		o.Config.HitsBufferDepth = depths[i]
		rep := env.runWith(o, r)
		rows[i] = Fig13aRow{
			Depth:            depths[i],
			ThroughputKReads: rep.ThroughputReadsPerSec / 1000,
			SUUtil:           rep.SUUtil,
			EUUtil:           rep.EUUtil,
		}
	})
	return rows
}

// FormatFig13a renders the sweep.
func FormatFig13a(rows []Fig13aRow) string {
	var b strings.Builder
	b.WriteString("Fig. 13(a) — Hits Buffer depth design space (paper optimum: 1024)\n")
	b.WriteString("  depth  throughput(K)   SU util   EU util\n")
	best := 0
	for i, r := range rows {
		if r.ThroughputKReads > rows[best].ThroughputKReads {
			best = i
		}
	}
	for i, r := range rows {
		mark := ""
		if i == best {
			mark = "  <- best"
		}
		fmt.Fprintf(&b, "  %5d  %13.0f   %6.1f%%   %6.1f%%%s\n",
			r.Depth, r.ThroughputKReads, 100*r.SUUtil, 100*r.EUUtil, mark)
	}
	return b.String()
}

// Fig13bRow is one interval-count design point.
type Fig13bRow struct {
	Intervals        int
	Sizes            []int
	Classes          []core.EUClass
	ThroughputKReads float64
	// CoordinatorPowerW = buffer + allocation logic (energy model).
	BufferPowerW, LogicPowerW float64
}

// Fig13bWith sweeps the number of hybrid-EU intervals (the paper picks
// 4 as the throughput/power sweet spot) under an explicit execution
// policy. For each interval count the pool is re-derived from the
// workload's hit distribution under the same 2880-PE budget. The hit
// distribution is collected once up front; the per-count pool solve
// and simulation fan across the runner's workers. Rows keep the input
// order; counts whose pool solve fails are dropped, as in the serial
// path.
func Fig13bWith(env *Env, counts []int, r *Runner) []Fig13bRow {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	budget := core.DefaultConfig().TotalPEs()
	lens := env.Aligner.HitLengths(sampleReads(env, 500))
	slots := make([]*Fig13bRow, len(counts))
	r.Map(len(counts), func(i int) {
		n := counts[i]
		sizes := sizesForIntervals(n)
		ladder := make([]core.EUClass, len(sizes))
		for k, p := range sizes {
			ladder[k] = core.EUClass{PEs: p, Count: 1}
		}
		dist := extsched.NewClassifier(ladder).Histogram(lens)
		classes, err := extsched.SolveHybrid(dist, sizes, budget)
		if err != nil {
			return
		}
		o := env.NvWaOptions()
		o.Config.EUClasses = compactClasses(classes)
		rep := env.runWith(o, r)
		bw, lw := energy.CoordinatorPower(n, o.Config.HitsBufferDepth)
		slots[i] = &Fig13bRow{
			Intervals:        n,
			Sizes:            sizes,
			Classes:          classes,
			ThroughputKReads: rep.ThroughputReadsPerSec / 1000,
			BufferPowerW:     bw,
			LogicPowerW:      lw,
		}
	})
	var rows []Fig13bRow
	for _, s := range slots {
		if s != nil {
			rows = append(rows, *s)
		}
	}
	return rows
}

// sizesForIntervals picks n strictly increasing unit widths spanning
// the short-read extension range. 4 gives the paper's 16/32/64/128.
func sizesForIntervals(n int) []int {
	switch n {
	case 1:
		return []int{64}
	case 2:
		return []int{32, 128}
	case 4:
		return []int{16, 32, 64, 128}
	case 8:
		return []int{8, 16, 24, 32, 48, 64, 96, 128}
	case 16:
		return []int{4, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160}
	default:
		// Geometric ladder between 8 and 256.
		sizes := make([]int, 0, n)
		lo, hi := 8.0, 256.0
		prev := 0
		for i := 0; i < n; i++ {
			v := int(lo*math.Pow(hi/lo, float64(i)/float64(n-1)) + 0.5)
			if v <= prev {
				v = prev + 1
			}
			sizes = append(sizes, v)
			prev = v
		}
		return sizes
	}
}

// compactClasses drops zero-count classes (SolveHybrid may sacrifice
// low-mass intervals under tight budgets).
func compactClasses(cs []core.EUClass) []core.EUClass {
	out := cs[:0:0]
	for _, c := range cs {
		if c.Count > 0 {
			out = append(out, c)
		}
	}
	return out
}

// sampleReads returns up to n reads of the workload.
func sampleReads(env *Env, n int) []seq.Seq {
	if n > len(env.Reads) {
		n = len(env.Reads)
	}
	return env.Reads[:n]
}

// FormatFig13b renders the sweep.
func FormatFig13b(rows []Fig13bRow) string {
	var b strings.Builder
	b.WriteString("Fig. 13(b) — interval-count design space (paper optimum: 4)\n")
	b.WriteString("  intervals  throughput(K)  buffer(W)  logic(W)  coord total(W)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %9d  %13.0f  %9.3f  %8.3f  %14.3f\n",
			r.Intervals, r.ThroughputKReads, r.BufferPowerW, r.LogicPowerW, r.BufferPowerW+r.LogicPowerW)
	}
	return b.String()
}
