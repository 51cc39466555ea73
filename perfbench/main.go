// Command perfbench is the repository's end-to-end benchmark. It
// measures the host time, allocation and memory the NvWa simulator
// spends per simulated read, checks every simulated read against the
// software aligner, and in a separate traced run splits the job time
// across the layers the benchmark calls into.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload short-live --seed 1 --seconds 25 --trace 0
//
// Workloads are short-live, sweep-replay and long-live (see
// workload.go). Load comes from this one process, one job at a time;
// at most min(NumCPU, GOMAXPROCS) goroutines run inside BuildMemo,
// EstimateReadCosts and the sharded job. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. layers.json records which end-to-end metric
// each layer metric should move, and on which workload.
//
// Every job, software pass and set-up is timed in probe-normalized time
// (see probe.go). The gated throughputs and setup_s are medians; the
// 10th, 50th and 90th percentiles of all job times and of the raw probe
// times are printed with their sample count above the JSON line.
//
// The benchmark's own tests run every workload at smoke size:
//
//	cd perfbench && go test ./...
//
// Host timings are wall clock, normalized by the probe. Cycle counts
// and simulated throughput are model outputs, printed under model.*,
// never a host speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
}

// metric is one printed figure. n, when positive, is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type result struct {
	trace     bool
	host      map[string]any
	correct   bool
	attempted int
	failed    int
	checks    []string // failed checks, for the human-readable lines
	metrics   []metric // what the JSON line carries
	info      []metric // printed, not gated
	model     []metric // model outputs, printed on every run
	spans     []span
}

func main() {
	name := flag.String("workload", "", "workload: short-live, sweep-replay or long-live")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced run and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny inputs and two iterations: every code path in seconds")
	spans := flag.String("spans", "", "file the traced run's spans are written to, as JSON")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload short-live|sweep-replay|long-live --seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]")
		os.Exit(2)
	}
	res := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke})
	if *spans != "" && res.spans != nil {
		if err := writeSpans(*spans, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, w, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up, measures it, and checks its outputs.
func run(cfg config) *result {
	sc := fullScale
	if cfg.smoke {
		sc = smokeScale
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	refSeed, readSeed := workloadSeed(cfg.w.name, 0), workloadSeed(cfg.w.name, cfg.seed)

	var t tally
	before := t.probe()
	e, st := setUp(cfg.w, sc, refSeed, readSeed, workers)
	setupS := []float64{normalized(st.total(), before, t.probe()).Seconds()}
	b := &bench{w: cfg.w, sc: sc, e: e, jobs: jobsFor(cfg.w, e), blocks: swBlocks(e), workers: workers}

	res := &result{trace: cfg.trace, host: map[string]any{
		"probe_ref_ms":  ms(probeRef),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"go":            runtime.Version(),
		"goroutine_cap": workers,
		"seed":          cfg.seed,
		"ref_seed":      refSeed,
		"read_seed":     readSeed,
		"reads":         len(e.Reads),
		"reads_per_job": len(e.parts[0].reads),
		"ref_bp":        sc.refLen,
		"jobs_per_iter": len(b.jobs),
	}}
	phase := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	if cfg.trace {
		res.metrics, res.spans = b.traced(&t, st, start.Add(phase))
	} else {
		for i := 0; i < sc.minIters || time.Since(start) < phase; i++ {
			b.iterate(&t)
			b.swBatch(&t)
			// The set-up is repeated at evenly spaced points of the phase,
			// so that it samples the same host conditions as the jobs.
			// Collecting its garbage keeps it out of the next job's
			// heap sample.
			if len(setupS) < sc.setupReps && time.Since(start) >= phase*time.Duration(len(setupS))/time.Duration(sc.setupReps) {
				before := t.probe()
				_, st := setUp(cfg.w, sc, refSeed, readSeed, workers)
				setupS = append(setupS, normalized(st.total(), before, t.probe()).Seconds())
				runtime.GC()
			}
		}
		b.siblingChecks(&t)
		res.metrics = endToEnd(&t, b, setupS)
		res.info = jobTimes(&t)
	}

	nv := t.first[nvwaJob(cfg.w)]
	res.model = []metric{
		{name: "model.kreads_per_s", value: nv.ThroughputReadsPerSec / 1000, unit: "kreads/s"},
		{name: "model.su_util", value: nv.SUUtil, unit: "ratio"},
		{name: "model.eu_util", value: nv.EUUtil, unit: "ratio"},
		{name: "model.optimal_fraction", value: nv.AllocStats.OptimalFraction(), unit: "ratio"},
		{name: "model.report_digest", value: float64(digest(t.first...)), unit: "hash"},
		{name: "accel.cycles", value: float64(nv.Cycles), unit: "count"},
		{name: "accel.hits", value: float64(nv.TotalHits), unit: "count"},
		{name: "coordinator.switches", value: float64(nv.Switches), unit: "count"},
		{name: "coordinator.assignments", value: float64(sum(nv.AllocStats.PerClassTotal)), unit: "count"},
	}
	if cfg.trace {
		res.metrics = append(res.metrics, res.model...)
		res.metrics = append(res.metrics, metric{name: "bench.read_error_rate", value: float64(t.failed) / float64(t.attempted), unit: "ratio"})
	}
	res.attempted, res.failed, res.checks = t.attempted, t.failed, t.checksFailed
	res.correct = t.failed == 0 && len(t.checksFailed) == 0
	return res
}

// atQuantile is the throughput, in reads per second, of work repeated
// in units (jobs or software blocks) of reads[i] reads whose runs took
// xs[i] ms, with every unit timed at the q-quantile of its own runs.
// Units that never ran are left out; n is the number of runs.
func atQuantile(reads []int, xs [][]float64, q float64) (perS float64, n int) {
	var sumMS, sumReads float64
	for i, x := range xs {
		if len(x) == 0 {
			continue
		}
		sumMS += quantile(x, q)
		sumReads += float64(reads[i])
		n += len(x)
	}
	return sumReads / (sumMS / 1000), n
}

func jobReads(jobs []job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = len(j.p.reads)
	}
	return out
}

func blockReads(blocks []block) []int {
	out := make([]int, len(blocks))
	for i, bl := range blocks {
		out[i] = bl.hi - bl.lo
	}
	return out
}

// endToEnd derives the untraced run's gated metrics.
func endToEnd(t *tally, b *bench, setupS []float64) []metric {
	sim, n := atQuantile(jobReads(b.jobs), t.jobMS, 0.5)
	sw, swN := atQuantile(blockReads(b.blocks), t.swMS, 0.5)
	simulated := float64(t.simReads)
	return []metric{
		{name: "sim_reads_per_s", value: sim, unit: "1/s", n: n},
		{name: "allocs_per_read", value: float64(t.mallocs) / simulated, unit: "count"},
		{name: "alloc_bytes_per_read", value: float64(t.bytes) / simulated, unit: "B"},
		{name: "peak_heap_mb", value: float64(t.peakHeap) / 1e6, unit: "MB", n: n},
		{name: "sw_reads_per_s", value: sw, unit: "1/s", n: swN},
		{name: "setup_s", value: quantile(setupS, 0.5), unit: "s", n: len(setupS)},
	}
}

// jobTimes are the figures printed beside the gated ones, with their
// sample count: the probe-normalized job-time percentiles, and the raw
// probe-time percentiles, which show how much the host slowed the run.
func jobTimes(t *tally) []metric {
	all := t.allJobMS()
	return []metric{
		{name: "job_ms_p10", value: quantile(all, 0.1), unit: "ms", n: len(all)},
		{name: "job_ms_p50", value: quantile(all, 0.5), unit: "ms", n: len(all)},
		{name: "job_ms_p90", value: quantile(all, 0.9), unit: "ms", n: len(all)},
		{name: "probe_ms_p10", value: quantile(t.probeMS, 0.1), unit: "ms", n: len(t.probeMS)},
		{name: "probe_ms_p50", value: quantile(t.probeMS, 0.5), unit: "ms", n: len(t.probeMS)},
		{name: "probe_ms_p90", value: quantile(t.probeMS, 0.9), unit: "ms", n: len(t.probeMS)},
	}
}

// quantile is the nearest-rank q-quantile of xs; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// printResult writes the human-readable lines and, last, the JSON
// result line.
func printResult(out io.Writer, w workload, res *result) error {
	host, err := json.Marshal(res.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "perfbench workload=%s\nhost %s\n", w.name, host)
	const shown = 10
	for _, c := range res.checks[:min(len(res.checks), shown)] {
		fmt.Fprintf(out, "FAILED CHECK %s\n", c)
	}
	if len(res.checks) > shown {
		fmt.Fprintf(out, "FAILED CHECK ... and %d more\n", len(res.checks)-shown)
	}
	lines := append(append([]metric(nil), res.metrics...), res.info...)
	if !res.trace {
		lines = append(lines, res.model...)
	}
	for _, m := range lines {
		fmt.Fprintf(out, "%-34s %16.6g %-9s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(out, " n=%d", m.n)
		}
		fmt.Fprintln(out)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
