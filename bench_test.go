package nvwa_test

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig/Table benchmarks execute the same harness code as
// cmd/nvwa-bench and report the headline metric of each artifact as a
// custom benchmark metric, so regenerating the evaluation is a single
// `go test -bench` invocation.

import (
	"math/rand"
	"sync"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/align"
	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/experiments"
	"nvwa/internal/fmindex"
	"nvwa/internal/genome"
	"nvwa/internal/minimizer"
	"nvwa/internal/seedsched"
	"nvwa/internal/seq"
	"nvwa/internal/systolic"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env builds the shared benchmark workload once: a 150 kbp human-like
// reference with 3000 simulated 101 bp reads.
func env() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(150000, 3000, 42)
	})
	return benchEnv
}

func BenchmarkFig2ExecutionBreakdown(b *testing.B) {
	e := env()
	var cv float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(e, 500)
		cv = res.Total.CV
	}
	b.ReportMetric(cv, "total-time-CV")
}

func BenchmarkFig5SchedulingToy(b *testing.B) {
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5()
	}
	b.ReportMetric(float64(res.BatchMakespan)/float64(res.OneCycleMakespan), "one-cycle-speedup")
}

func BenchmarkFig6AllocatorPath(b *testing.B) {
	// Gate-level allocation cycle for 512 units (the paper's largest).
	a := seedsched.NewOneCycleAllocator(512)
	busy := make([]bool, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range busy {
		busy[i] = rng.Intn(2) == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(busy)
	}
	b.ReportMetric(float64(a.TreeDepth()), "tree-depth")
}

func BenchmarkFig8SystolicLatency(b *testing.B) {
	var series []experiments.Fig8Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig8()
	}
	b.ReportMetric(float64(series[1].Best), "best-P-len64")
}

func BenchmarkFig9HybridVsUniform(b *testing.B) {
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9()
	}
	b.ReportMetric(float64(res.UniformCycles), "uniform-cycles")
	b.ReportMetric(float64(res.HybridCycles), "hybrid-cycles")
}

func BenchmarkFig11Throughput(b *testing.B) {
	e := env()
	var res experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig11With(e, experiments.NewRunner(1))
	}
	b.ReportMetric(res.TotalSpeedup, "nvwa-vs-SUsEUs-x")
	b.ReportMetric(res.CPUSpeedup, "nvwa-vs-software-x")
}

func BenchmarkFig12Utilization(b *testing.B) {
	e := env()
	var res experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig12(e)
	}
	b.ReportMetric(100*res.NvWa.SUUtil, "nvwa-SU-util-%")
	b.ReportMetric(100*res.Baseline.SUUtil, "base-SU-util-%")
	b.ReportMetric(100*res.NvWa.EUUtil, "nvwa-EU-util-%")
	b.ReportMetric(100*res.Baseline.EUUtil, "base-EU-util-%")
}

func BenchmarkFig13aBufferDepth(b *testing.B) {
	e := env()
	var rows []experiments.Fig13aRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig13aWith(e, []int{64, 256, 1024, 4096}, experiments.NewRunner(1))
	}
	best := rows[0]
	for _, r := range rows {
		if r.ThroughputKReads > best.ThroughputKReads {
			best = r
		}
	}
	b.ReportMetric(float64(best.Depth), "best-depth")
}

func BenchmarkFig13bIntervals(b *testing.B) {
	e := env()
	var rows []experiments.Fig13bRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig13bWith(e, []int{1, 2, 4, 8}, experiments.NewRunner(1))
	}
	for _, r := range rows {
		if r.Intervals == 4 {
			b.ReportMetric(r.ThroughputKReads, "tput-4-intervals-K")
			b.ReportMetric(r.BufferPowerW+r.LogicPowerW, "coord-power-W")
		}
	}
}

func BenchmarkFig14Datasets(b *testing.B) {
	var rows []experiments.Fig14Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig14With(100000, 1000, 42, experiments.NewRunner(1))
	}
	min, max := rows[0].Speedup, rows[0].Speedup
	for _, r := range rows {
		if r.Speedup < min {
			min = r.Speedup
		}
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	b.ReportMetric(min, "min-speedup-x")
	b.ReportMetric(max, "max-speedup-x")
}

func BenchmarkTable1Config(b *testing.B) {
	cfg := core.DefaultConfig()
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Table1(cfg)
	}
	b.ReportMetric(float64(len(s)), "chars")
}

func BenchmarkTable2Energy(b *testing.B) {
	e := env()
	rep := e.RunNvWa()
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table2(rep)
	}
	b.ReportMetric(res.NvWaEnergyPerReadJ*1e9, "nJ-per-read")
}

// --- substrate microbenchmarks ---

func benchWorkload(b *testing.B) (*experiments.Env, []seq.Seq) {
	e := env()
	return e, e.Reads
}

func BenchmarkFMIndexBuild(b *testing.B) {
	ref := genome.Generate(genome.HumanLike(), 100000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmindex.New(ref.Seq)
	}
}

func BenchmarkSMEMSeeding(b *testing.B) {
	e, reads := benchWorkload(b)
	sd := e.Aligner.Seeder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st fmindex.Stats
		sd.Seeds(reads[i%len(reads)], 19, 32, 8, &st)
	}
}

func BenchmarkSoftwareAlign(b *testing.B) {
	e, reads := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Aligner.Align(i%len(reads), reads[i%len(reads)])
	}
}

func BenchmarkSmithWatermanLocal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ref := make([]byte, 128)
	read := make([]byte, 101)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	for i := range read {
		read[i] = byte(rng.Intn(4))
	}
	sc := align.BWAMEM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Local(ref, read, sc)
	}
}

func BenchmarkSystolicArrayRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ref := make([]byte, 128)
	q := make([]byte, 101)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	for i := range q {
		q[i] = byte(rng.Intn(4))
	}
	arr := systolic.Array{PEs: 64, Scoring: align.BWAMEM()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Run(ref, q, systolic.ModeExtend, 0)
	}
}

func BenchmarkCoordinatorRound(b *testing.B) {
	classes := core.DefaultConfig().EUClasses
	a := coordinator.NewAllocator(classes, coordinator.Grouped)
	rng := rand.New(rand.NewSource(4))
	window := make([]core.Hit, 16)
	for i := range window {
		ext := rng.Intn(128)
		window[i] = core.Hit{ReadIdx: i, ReadLen: 128, ReadEnd: ext}
	}
	var idle []coordinator.IdleUnit
	id := 0
	for ci, c := range classes {
		for k := 0; k < c.Count; k++ {
			idle = append(idle, coordinator.IdleUnit{ID: id, Class: ci, PEs: c.PEs})
			id++
		}
	}
	var ar core.HitArena
	ids := make([]core.HitID, len(window))
	for i, h := range window {
		ids[i] = ar.Alloc(h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AllocateIDs(&ar, ids, idle)
	}
}

func BenchmarkFullSystemSimulation(b *testing.B) {
	e := env()
	reads := e.Reads[:1000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := accel.New(e.Aligner, e.NvWaOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep := sys.Run(reads)
		b.ReportMetric(rep.ThroughputReadsPerSec/1000, "sim-Kreads/s")
	}
}

func BenchmarkMinimizerSketch(b *testing.B) {
	ref := genome.Generate(genome.HumanLike(), 100000, 8)
	b.SetBytes(int64(len(ref.Seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minimizer.Minimizers(ref.Seq, 10, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeculativeExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ref := make([]byte, 120)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	read := append([]byte(nil), ref...)
	read[40] = (read[40] + 1) % 4
	sc := align.BWAMEM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.SpeculativeExtend(ref, read, sc, 10, 8)
	}
}
