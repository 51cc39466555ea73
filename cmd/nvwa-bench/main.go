// Command nvwa-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nvwa-bench [-exp all|fig2|fig5|fig6|fig8|fig9|fig11|fig12|fig13a|fig13b|fig14|tab1|tab2|chaos|scaleout|recovery]
//	           [-reads N] [-reflen N] [-seed N] [-chaos-seeds N]
//	           [-j N] [-trace FILE] [-metrics FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints the rows or series of the corresponding paper
// artifact; EXPERIMENTS.md records paper-versus-measured values.
//
// Every simulation replays the workload's one functional memo cache
// (accel.Memo): seeding and extension run once per read, and each
// configuration simulates only the cycle model.
//
// -j N fans the independent configurations of the multi-config
// experiments (fig11, fig13a, fig13b, fig14, frontend) across N
// workers (default 1; 0 means GOMAXPROCS); the output is
// byte-identical to the one-worker run (the only exception is the
// measured software-pipeline throughput, which is a wall-clock
// measurement either way).
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
// The sweep runs on one chip and on two; at two, each schedule is
// generated over the aggregate machine and partitioned per shard.
//
// -exp recovery runs the crash-recovery smoke sweep: seeded chip-crash
// schedules across all three partition policies and checkpoint
// intervals, each asserted byte-identical (Recovery ledger aside) to
// its crash-free baseline, with replayed-cycle and checkpoint-traffic
// overheads tabulated. Excluded from -exp all for the same reason as
// chaos; the bench exits 1 if any recovered Report diverges.
//
// -exp scaleout sweeps the three read-partitioning policies
// (contiguous, interleaved, balanced work stealing; see DESIGN.md
// "Scale-out sharding") across shard counts S ∈ {1,2,4,8,16} and
// prints one table per policy: makespan, min/max shard, aggregate
// throughput, both utilization pairs and steals versus S. It is
// excluded from -exp all (scale-out across chips is beyond the paper's
// single-chip scope).
//
// Exit codes: 0 success; 1 runtime failure (including a chaos
// conservation violation or watchdog abort); 2 usage error (unknown
// flag, unknown experiment id, negative -j).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

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
	jobs := flag.Int("j", 1, "fan independent experiment configurations across N workers (0 = GOMAXPROCS)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the fig12 NvWa run to FILE")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot of the fig12 NvWa run to FILE")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the bench to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	flag.Parse()

	if *reads < 1 {
		usage(fmt.Errorf("-reads must be >= 1, got %d", *reads))
	}
	if *jobs < 0 {
		usage(fmt.Errorf("-j must be >= 0, got %d", *jobs))
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

	runner := experiments.NewRunner(*jobs)

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

	ran := 0
	if need("fig2") {
		fmt.Println(experiments.Fig2(getEnv(), 500).Format())
		ran++
	}
	if need("fig5") {
		fmt.Println(experiments.Fig5().Format())
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
		fig14Reads := max(*reads/2, 500)
		fmt.Println(experiments.FormatFig14(experiments.Fig14With(*refLen, fig14Reads, *seed, runner)))
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
		res := experiments.Chaos(getEnv(), experiments.ChaosConfig{Seeds: *chaosSeeds, Seed: *seed}, runner)
		fmt.Println(res.Format())
		if err := res.Err(); err != nil {
			fail(err)
		}
		ran++
	}
	if need("scaleout") {
		fmt.Println(experiments.Scaleout(getEnv(), runner).Format())
		ran++
	}
	if need("recovery") {
		res := experiments.Recovery(getEnv(), runner)
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
