// Command nvwa-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nvwa-bench [-exp all|fig2|fig5|fig6|fig8|fig9|fig11|fig12|fig13a|fig13b|fig14|tab1|tab2|chaos|scaleout|recovery]
//	           [-reads N] [-reflen N] [-seed N] [-chaos-seeds N]
//	           [-parallel] [-j N] [-json BENCH_parallel.json]
//	           [-shards S] [-shard-policy contiguous|interleaved|balanced]
//	           [-scaleout-json BENCH_scaleout.json] [-scaleout-check]
//
// Each experiment prints the rows or series of the corresponding paper
// artifact; EXPERIMENTS.md records paper-versus-measured values.
//
// -parallel (or -j > 1) fans the independent configurations of the
// multi-config experiments (fig11, fig13a, fig13b, fig14, frontend)
// across a worker pool and replays the shared functional memo cache;
// the output is byte-identical to the serial run (the only exception
// is the measured software-pipeline throughput, which is a wall-clock
// measurement either way).
//
// -json FILE times every parallelizable experiment twice — serial and
// parallel — and writes per-experiment wall-clock rows with speedups
// (plus a determinism check of the two outputs) to FILE.
//
// -trace FILE and -metrics FILE attach the observability layer to the
// fig12 NvWa run (select it with -exp fig12 or -exp all) and export a
// Chrome trace_event timeline and a JSON metrics snapshot. Observation
// never changes results. -cpuprofile/-memprofile write pprof profiles
// of the bench process.
//
// -exp chaos runs the fault-injection chaos harness: -chaos-seeds
// seeded fault schedules swept across all four Hits Allocator
// strategies, each run under a watchdog with the scheduler invariant
// checker attached. It is excluded from -exp all (it simulates
// degraded hardware, not a paper figure); select it explicitly. The
// bench exits 1 if any chaos run hangs past its budget or leaks a hit.
// Combined with -shards, each chaos schedule is generated over the
// aggregate S-chip machine and partitioned per shard.
//
// -shards S routes every Env-backed simulation through the sharded
// scale-out engine (S independent chips over a partitioned read set,
// Reports merged deterministically; see DESIGN.md "Scale-out
// sharding"). -shard-policy picks contiguous (default), interleaved,
// or balanced partitioning (balanced = deterministic work stealing
// over seed-density cost estimates). The -json bench additionally re-chunks the fig11 and
// fig14 jobs at S=4 on both the serial and parallel side, so their
// single large simulations scale with -j while the byte-identity
// check still compares like with like.
//
// -exp recovery runs the crash-recovery smoke sweep: seeded chip-crash
// schedules across all three partition policies and checkpoint
// intervals, each asserted byte-identical (Recovery ledger aside) to
// its crash-free baseline, with replayed-cycle and checkpoint-traffic
// overheads tabulated. Excluded from -exp all for the same reason as
// chaos; the bench exits 1 if any recovered Report diverges.
//
// -exp scaleout sweeps shard counts S ∈ {1,2,4,8,16} and prints
// aggregate throughput and makespan versus S; it is excluded from
// -exp all (scale-out across chips is beyond the paper's single-chip
// scope). -scaleout-json FILE additionally times each shard count
// serial versus parallel and writes the BENCH_scaleout.json artifact.
// -scaleout-check runs the machine-independent scale-out guardrail
// (merged makespan == max shard makespan, aggregate throughput grows
// with S, zero allocations in the merge reduction hot path, optimized
// merge == reference merge) and exits non-zero on violation.
//
// Exit codes: 0 success; 1 runtime failure (including a chaos
// conservation violation or watchdog abort); 2 usage error (unknown
// flag or unknown experiment id).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nvwa/internal/accel"
	"nvwa/internal/experiments"
	"nvwa/internal/genome"
	"nvwa/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig2,fig5,fig6,fig8,fig9,fig11,fig12,fig13a,fig13b,fig14,tab1,tab2,seeding,intraunit,bands,frontend,chaos,scaleout,recovery) or 'all' (chaos, scaleout, recovery excluded)")
	chaosSeeds := flag.Int("chaos-seeds", 4, "number of seeded fault schedules per allocator strategy for -exp chaos")
	reads := flag.Int("reads", 4000, "number of simulated reads for system experiments")
	refLen := flag.Int("reflen", 200000, "synthetic reference length (bp)")
	seed := flag.Int64("seed", 42, "random seed")
	parallel := flag.Bool("parallel", false, "fan independent experiment configurations across a worker pool")
	jobs := flag.Int("j", 0, "worker count for -parallel (0 = GOMAXPROCS; >1 implies -parallel)")
	jsonOut := flag.String("json", "", "time serial vs parallel for each multi-config experiment and write JSON rows to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the fig12 NvWa run to FILE")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot of the fig12 NvWa run to FILE")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the bench to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	kernels := flag.Bool("kernels", false, "benchmark the optimized kernels against their retained reference implementations")
	kernelsOut := flag.String("kernels-out", "BENCH_kernels.json", "output file for -kernels")
	kernelsCheck := flag.String("kernels-check", "", "re-measure the kernel suite and compare against this committed baseline instead of writing a file (implies -kernels)")
	kernelsTol := flag.Float64("kernels-tol", 0.20, "with -kernels-check: allowed fractional drop in per-kernel speedup")
	kernelFilter := flag.String("kernel", "", "with -kernels/-kernels-check: only measure kernels whose id contains this substring (filtered -kernels prints without writing the baseline file)")
	shards := flag.Int("shards", 1, "simulate S independent chips over a partitioned read set and merge Reports deterministically (1 = unsharded)")
	shardPolicy := flag.String("shard-policy", "contiguous", "read partitioning policy for -shards: contiguous, interleaved, or balanced")
	scaleoutOut := flag.String("scaleout-json", "", "sweep shard counts serial vs parallel and write the BENCH_scaleout.json artifact to this file")
	scaleoutCheck := flag.Bool("scaleout-check", false, "run the machine-independent scale-out guardrail and exit non-zero on violation")
	flag.Parse()

	pol, err := accel.ParseShardPolicy(*shardPolicy)
	if err != nil {
		usage(err)
	}
	if *shards < 1 {
		usage(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}

	if *kernels || *kernelsCheck != "" || *kernelFilter != "" {
		var err error
		if *kernelsCheck != "" {
			err = checkKernelBench(*kernelsCheck, *kernelsTol, *kernelFilter)
		} else {
			err = runKernelBench(*kernelsOut, *kernelFilter)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	runner := experiments.Serial()
	if *parallel || *jobs > 1 {
		runner = experiments.NewRunner(*jobs)
	}
	if *shards > 1 {
		runner = runner.WithShards(*shards, pol)
	}

	known := map[string]bool{"all": true}
	for _, id := range []string{
		"fig2", "fig5", "fig6", "fig8", "fig9", "fig11", "fig12",
		"fig13a", "fig13b", "fig14", "tab1", "tab2",
		"seeding", "intraunit", "bands", "frontend", "chaos", "scaleout",
		"recovery",
	} {
		known[id] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		id := strings.TrimSpace(e)
		if !known[id] {
			usage(fmt.Errorf("unknown experiment %q", id))
		}
		want[id] = true
	}
	if *chaosSeeds <= 0 {
		usage(fmt.Errorf("-chaos-seeds must be positive, got %d", *chaosSeeds))
	}
	all := want["all"]
	// The chaos harness simulates degraded hardware and the scale-out
	// sweep simulates a multi-chip deployment — neither is a paper
	// artifact, so "all" implies neither; select them explicitly.
	need := func(id string) bool {
		return (all && id != "chaos" && id != "scaleout" && id != "recovery") || want[id]
	}
	readLen := genome.ShortReadConfig(0).ReadLen
	if need("fig14") {
		readLen = genome.LongReadConfig(0).ReadLen
	}
	if err := genome.CheckRefLen(*refLen, readLen); err != nil {
		usage(fmt.Errorf("-reflen: %w", err))
	}

	var env *experiments.Env
	getEnv := func() *experiments.Env {
		if env == nil {
			fmt.Fprintf(os.Stderr, "building workload: %d bp reference, %d reads (seed %d)...\n", *refLen, *reads, *seed)
			env = experiments.NewEnv(*refLen, *reads, *seed)
		}
		return env
	}
	fig14Reads := func() int {
		n := *reads / 2
		if n < 500 {
			n = 500
		}
		return n
	}

	if *scaleoutCheck {
		if err := runScaleoutCheck(getEnv(), pol); err != nil {
			fail(err)
		}
		fmt.Println("scaleout-check: ok")
		return
	}
	if *scaleoutOut != "" {
		if err := runScaleoutBench(*scaleoutOut, getEnv(), *refLen, *seed, runner); err != nil {
			fail(err)
		}
		return
	}

	if *jsonOut != "" {
		if err := runParallelBench(*jsonOut, need, getEnv, *refLen, fig14Reads(), *seed, runner); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ran := 0
	if need("fig2") {
		fmt.Println(experiments.Fig2(getEnv(), 500).Format())
		ran++
	}
	if need("fig5") {
		fmt.Println(experiments.Fig5(nil, 4).Format())
		ran++
	}
	if need("fig6") {
		fmt.Println(experiments.FormatFig6(experiments.Fig6()))
		ran++
	}
	if need("fig8") {
		fmt.Println(experiments.FormatFig8(experiments.Fig8()))
		ran++
	}
	if need("fig9") {
		fmt.Println(experiments.Fig9().Format())
		ran++
	}
	if need("fig11") {
		fmt.Println(experiments.Fig11With(getEnv(), runner).Format())
		ran++
	}
	if need("fig12") {
		if *traceOut != "" || *metricsOut != "" {
			ob := obs.New()
			fmt.Println(experiments.Fig12Observed(getEnv(), ob).Format())
			if err := ob.Inv.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "nvwa-bench: scheduler invariant violated:", err)
			}
			if err := writeObs(ob, *traceOut, *metricsOut); err != nil {
				fail(err)
			}
		} else {
			fmt.Println(experiments.Fig12(getEnv()).Format())
		}
		ran++
	}
	if need("fig13a") {
		fmt.Println(experiments.FormatFig13a(experiments.Fig13aWith(getEnv(), nil, runner)))
		ran++
	}
	if need("fig13b") {
		fmt.Println(experiments.FormatFig13b(experiments.Fig13bWith(getEnv(), nil, runner)))
		ran++
	}
	if need("fig14") {
		fmt.Println(experiments.FormatFig14(experiments.Fig14With(*refLen, fig14Reads(), *seed, runner)))
		ran++
	}
	if need("seeding") {
		res, err := experiments.SeedingTraffic(getEnv(), 500, 12)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
		ran++
	}
	if need("intraunit") {
		fmt.Println(experiments.FormatIntraUnit(experiments.IntraUnit(getEnv())))
		ran++
	}
	if need("bands") {
		fmt.Println(experiments.FormatBandPressure(experiments.BandPressure(getEnv(), 500)))
		ran++
	}
	if need("frontend") {
		rows, err := experiments.FrontEndsWith(getEnv(), runner)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatFrontEnds(rows))
		ran++
	}
	if need("chaos") {
		cfg := experiments.DefaultChaosConfig()
		cfg.Seeds = *chaosSeeds
		cfg.Template.Seed = *seed
		res := experiments.Chaos(getEnv(), cfg, runner)
		fmt.Println(res.Format())
		if err := res.Err(); err != nil {
			fail(err)
		}
		ran++
	}
	if need("scaleout") {
		fmt.Println(experiments.Scaleout(getEnv(), nil, pol, runner).Format())
		ran++
	}
	if need("recovery") {
		res := experiments.Recovery(getEnv(), experiments.DefaultRecoveryConfig(), runner)
		fmt.Println(res.Format())
		if err := res.Err(); err != nil {
			fail(err)
		}
		ran++
	}
	if need("tab1") {
		fmt.Println(experiments.Table1(getEnv().NvWaOptions().Config))
		ran++
	}
	if need("tab2") {
		fmt.Println(experiments.Table2(getEnv().RunNvWa()).Format())
		ran++
	}
	if ran == 0 {
		usage(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// writeObs exports the observer's trace and metrics artifacts.
func writeObs(ob *obs.Observer, tracePath, metricsPath string) error {
	write := func(path string, emit func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(tracePath, func(f *os.File) error { return ob.Trace.WriteJSON(f) }); err != nil {
		return err
	}
	return write(metricsPath, func(f *os.File) error { return ob.Metrics.WriteJSON(f) })
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-bench:", err)
	os.Exit(1)
}

// usage reports an invalid invocation and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-bench:", err)
	flag.Usage()
	os.Exit(2)
}

// benchRow is one serial-versus-parallel timing comparison.
type benchRow struct {
	Experiment string `json:"experiment"`
	Workers    int    `json:"workers"`
	// Shards is the sharded scale-out chunking applied to both sides of
	// the comparison (0 = unsharded). Sharding lets a single large
	// simulation — not just a fan of independent variants — scale with
	// the worker count.
	Shards     int     `json:"shards,omitempty"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// OutputIdentical is the determinism check: with the measured
	// software throughput pinned, the two runs must format to the same
	// bytes.
	OutputIdentical bool `json:"output_identical"`
}

// benchFile is the BENCH_parallel.json schema.
type benchFile struct {
	GeneratedAt string     `json:"generated_at"`
	Host        benchHost  `json:"host"`
	Workload    benchWork  `json:"workload"`
	Rows        []benchRow `json:"rows"`
}

type benchHost struct {
	// GOMAXPROCS is the effective worker parallelism at measurement
	// time; NumCPU is the host's logical CPU count. When they differ,
	// speedups must be read against GOMAXPROCS, not NumCPU.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	// Note flags measurement conditions that bound the achievable
	// speedup (e.g. a single-core host, where parallel ≈ serial by
	// construction and speedup rows carry no signal).
	Note string `json:"note,omitempty"`
	// GC is the host runtime's memory/collector snapshot at emission
	// time, so every benchmark file records the GC context its numbers
	// were measured under (see obs.HostGC).
	GC obs.HostGC `json:"gc"`
}

// hostInfo captures the bench host honestly at measurement time.
func hostInfo() benchHost {
	h := benchHost{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GC:         obs.ReadHostGC(),
	}
	if h.NumCPU == 1 || h.GOMAXPROCS == 1 {
		h.Note = "single-core host: parallel speedups are bounded at ~1.0x; " +
			"re-run on a multi-core host for meaningful scaling rows"
	}
	return h
}

type benchWork struct {
	RefLen     int   `json:"reflen"`
	Reads      int   `json:"reads"`
	Fig14Reads int   `json:"fig14_reads"`
	Seed       int64 `json:"seed"`
}

// runParallelBench times each selected multi-config experiment under
// the serial and parallel policies and writes the JSON report. The
// software-pipeline throughput is pinned so both outputs are
// deterministic and comparable byte for byte.
func runParallelBench(path string, need func(string) bool, getEnv func() *experiments.Env,
	refLen, fig14Reads int, seed int64, runner *experiments.Runner) error {
	const pinnedRPS = 1e6 // deterministic stand-in for the measured CPU baseline
	if !runner.Parallel() {
		runner = experiments.NewRunner(runtime.NumCPU())
	}
	par := runner.WithSoftwareRPS(pinnedRPS)
	ser := experiments.Serial().WithSoftwareRPS(pinnedRPS)

	// fig11 and fig14 are dominated by a handful of large simulations
	// (six configs, four datasets), which caps their fan-out speedup.
	// Re-chunk both sides of the comparison through the sharded
	// scale-out engine at S=4 so each large simulation splits into four
	// concurrently runnable shards; serial and parallel shard
	// identically, so the byte-identity check still compares like with
	// like (the merged Report is invariant to the worker count).
	const benchShards = 4
	ser4 := ser.WithShards(benchShards, accel.ShardContiguous)
	par4 := par.WithShards(benchShards, accel.ShardContiguous)

	type job struct {
		id       string
		shards   int
		ser, par *experiments.Runner
		run      func(r *experiments.Runner) string
	}
	jobs := []job{
		{"fig11", benchShards, ser4, par4, func(r *experiments.Runner) string {
			return experiments.Fig11With(getEnv(), r).Format()
		}},
		{"fig13a", 0, ser, par, func(r *experiments.Runner) string {
			return experiments.FormatFig13a(experiments.Fig13aWith(getEnv(), nil, r))
		}},
		{"fig13b", 0, ser, par, func(r *experiments.Runner) string {
			return experiments.FormatFig13b(experiments.Fig13bWith(getEnv(), nil, r))
		}},
		{"fig14", benchShards, ser4, par4, func(r *experiments.Runner) string {
			return experiments.FormatFig14(experiments.Fig14With(refLen, fig14Reads, seed, r))
		}},
		{"frontend", 0, ser, par, func(r *experiments.Runner) string {
			rows, err := experiments.FrontEndsWith(getEnv(), r)
			if err != nil {
				panic(err)
			}
			return experiments.FormatFrontEnds(rows)
		}},
	}

	out := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        hostInfo(),
		Workload:    benchWork{RefLen: refLen, Reads: len(getEnv().Reads), Fig14Reads: fig14Reads, Seed: seed},
	}
	fmt.Printf("%-10s %7s %12s %12s %9s %s\n", "experiment", "shards", "serial(ms)", "parallel(ms)", "speedup", "identical")
	for _, j := range jobs {
		if !need(j.id) {
			continue
		}
		t0 := time.Now()
		serOut := j.run(j.ser)
		serialMS := float64(time.Since(t0).Microseconds()) / 1000
		t1 := time.Now()
		parOut := j.run(j.par)
		parallelMS := float64(time.Since(t1).Microseconds()) / 1000
		row := benchRow{
			Experiment:      j.id,
			Workers:         par.Workers(),
			Shards:          j.shards,
			SerialMS:        serialMS,
			ParallelMS:      parallelMS,
			OutputIdentical: serOut == parOut,
		}
		if parallelMS > 0 {
			row.Speedup = serialMS / parallelMS
		}
		out.Rows = append(out.Rows, row)
		fmt.Printf("%-10s %7d %12.1f %12.1f %8.2fx %v\n",
			row.Experiment, row.Shards, row.SerialMS, row.ParallelMS, row.Speedup, row.OutputIdentical)
	}
	if out.Host.Note != "" {
		fmt.Fprintln(os.Stderr, "note:", out.Host.Note)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, j=%d)\n", path, len(out.Rows), par.Workers())
	return nil
}
