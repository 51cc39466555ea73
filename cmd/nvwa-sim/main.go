// Command nvwa-sim runs one accelerator simulation and prints the
// report: throughput, utilizations, allocation quality, and memory
// traffic.
//
// Usage:
//
//	nvwa-sim [-reads N] [-reflen N] [-seed N]
//	         [-sus N] [-buffer N] [-seeding one-cycle|batch]
//	         [-alloc grouped|exclusive|shared|fifo]
//	         [-pool derived|table1|uniform]
//	         [-shards S] [-shard-policy contiguous|interleaved|balanced]
//	         [-faults SPEC] [-watchdog N]
//	         [-checkpoint-every N] [-checkpoint-dir D] [-resume FILE]
//	         [-trace FILE] [-metrics FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -shards S simulates S independent chips over a partitioned read set
// (scale-out) and reports the deterministically merged outcome:
// makespan is the max shard makespan, throughput is the aggregate,
// utilizations are capacity-weighted means, and ledgers are sums.
// -shard-policy picks contiguous (default), interleaved, or
// balanced partitioning; balanced rebalances the contiguous
// assignment with the deterministic work-stealing planner (the
// report then carries the resolved StealLog). S=1 is byte-identical
// to the unsharded simulator.
// With -faults, the schedule is interpreted over the aggregate machine
// (S×sus seeding units, S×EUs extension units) and partitioned per
// shard with unit-id remapping.
//
// -trace writes a Chrome trace_event timeline of the run (open in
// Perfetto or chrome://tracing; 1 simulated cycle = 1 µs). -metrics
// writes a JSON snapshot of every counter, gauge, histogram, and time
// series the simulated machine emitted. Either flag attaches the
// observability layer, which never changes the simulation: the report
// is identical with or without it. -cpuprofile/-memprofile write
// pprof profiles of the simulator process itself.
//
// -faults injects a deterministic fault schedule. SPEC is either an
// explicit plan in wire form ("v1;eu-fail@5000#3,su-stall@100#7+256")
// or a seeded generator spec ("seed=7,eu-fail=2,su-stall=3"; keys:
// seed, horizon, su-stall, su-fail, eu-stall, eu-fail, mem-timeout,
// pressure, mean-stall, mean-window). The report then carries the
// fault-injection accounting. -watchdog N bounds the run to N cycles
// and diagnoses livelock; 0 disables.
//
// -checkpoint-every N snapshots the simulation every N cycles. On an
// unsharded run the snapshots are written to -checkpoint-dir as
// self-validating checkpoint files; -resume FILE restarts a later
// invocation (with identical workload and configuration flags — the
// checkpoint carries their hashes and refuses a mismatch) from one of
// them, and the resumed run's report is byte-identical to the
// uninterrupted run's. With -shards S > 1 the checkpoints stay in
// memory and serve chip-crash recovery: a "chip-crash@CYCLE#SHARD"
// event in -faults kills that shard, which restarts from its last
// checkpoint; the merged report stays byte-identical to the crash-free
// run and carries the Recovery ledger. -checkpoint-dir and -resume
// require -shards 1. When -checkpoint-dir is set and a watchdog abort
// fires, the final pre-abort state is written to abort.ckpt so the run
// can be resumed under a raised budget instead of redone.
//
// Exit codes: 0 success; 1 runtime failure (including a watchdog
// abort); 2 usage error (unknown flag or invalid flag value).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"nvwa"
	"nvwa/internal/accel"
	"nvwa/internal/coordinator"
	"nvwa/internal/obs"
)

func main() {
	reads := flag.Int("reads", 4000, "number of simulated reads")
	refLen := flag.Int("reflen", 200000, "synthetic reference length (bp)")
	seed := flag.Int64("seed", 42, "random seed")
	sus := flag.Int("sus", 128, "number of seeding units")
	buffer := flag.Int("buffer", 1024, "hits buffer depth")
	seeding := flag.String("seeding", "one-cycle", "seeding scheduler: one-cycle or batch")
	alloc := flag.String("alloc", "grouped", "hits allocator: grouped, exclusive, shared, fifo")
	pool := flag.String("pool", "derived", "EU pool: derived (Eq. 5 from workload), table1, uniform")
	frontend := flag.String("frontend", "fm", "seeding front end: fm (BWA-MEM three-pass) or minimizer")
	shards := flag.Int("shards", 1, "simulate S independent chips over a partitioned read set and merge reports (1 = unsharded)")
	shardPolicy := flag.String("shard-policy", "contiguous", "read partitioning policy for -shards: contiguous, interleaved, or balanced")
	faultsSpec := flag.String("faults", "", "fault schedule: wire form (\"v1;...\") or generator spec (\"seed=7,eu-fail=2\"); with -shards, interpreted over the aggregate machine")
	watchdog := flag.Int64("watchdog", 0, "abort the run after N cycles with a livelock diagnosis (0 = off)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "snapshot the simulation every N cycles (0 = off): unsharded runs write files to -checkpoint-dir, sharded runs keep them in memory for chip-crash recovery")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic and watchdog-abort checkpoint files (requires -shards 1)")
	resume := flag.String("resume", "", "resume from a checkpoint FILE written by a previous run with identical flags (requires -shards 1)")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON instead of text")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the run to FILE")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot of the run to FILE")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	flag.Parse()

	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	for _, p := range []struct {
		name string
		v    int
	}{{"reads", *reads}, {"reflen", *refLen}, {"sus", *sus}, {"buffer", *buffer}} {
		if p.v <= 0 {
			usage(fmt.Errorf("-%s must be a positive integer, got %d", p.name, p.v))
		}
	}
	if *watchdog < 0 {
		usage(fmt.Errorf("-watchdog must be >= 0, got %d", *watchdog))
	}
	if *shards < 1 {
		usage(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	pol, err := nvwa.ParseShardPolicy(*shardPolicy)
	if err != nil {
		usage(err)
	}
	if *ckptEvery < 0 {
		usage(fmt.Errorf("-checkpoint-every must be >= 0, got %d", *ckptEvery))
	}
	if *shards > 1 && (*ckptDir != "" || *resume != "") {
		usage(fmt.Errorf("-checkpoint-dir and -resume require -shards 1 (sharded runs checkpoint in memory)"))
	}
	if *shards == 1 && *ckptEvery > 0 && *ckptDir == "" {
		usage(fmt.Errorf("-checkpoint-every on an unsharded run needs -checkpoint-dir to write to"))
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

	ref := nvwa.GenerateReference(nvwa.HumanLikeProfile(), *refLen, *seed)
	aligner := nvwa.NewAligner(ref)
	rs := nvwa.SimulateReads(ref, *reads, nvwa.ShortReads(*seed+1))
	seqs := nvwa.Sequences(rs)

	opts := nvwa.NvWaOptions()
	switch *pool {
	case "derived":
		var err error
		opts, err = nvwa.DerivedOptions(aligner, sample(seqs, 500))
		if err != nil {
			fail(err)
		}
	case "table1":
		// keep Table I classes
	case "uniform":
		opts.Config = opts.Config.UniformEUConfig(64)
	default:
		usage(fmt.Errorf("unknown pool %q", *pool))
	}
	opts.Config.NumSUs = *sus
	opts.Config.HitsBufferDepth = *buffer
	switch *seeding {
	case "one-cycle":
		opts.SeedStrategy = accel.OneCycle
	case "batch":
		opts.SeedStrategy = accel.ReadInBatch
	default:
		usage(fmt.Errorf("unknown seeding strategy %q", *seeding))
	}
	switch *alloc {
	case "grouped":
		opts.AllocStrategy = coordinator.Grouped
	case "exclusive":
		opts.AllocStrategy = coordinator.Exclusive
	case "shared":
		opts.AllocStrategy = coordinator.Shared
	case "fifo":
		opts.AllocStrategy = coordinator.FIFO
	default:
		usage(fmt.Errorf("unknown alloc strategy %q", *alloc))
	}

	switch *frontend {
	case "fm":
	case "minimizer":
		ms, err := nvwa.NewMinimizerSeeder(aligner, 10, 15)
		if err != nil {
			fail(err)
		}
		opts.Seeder = ms
	default:
		usage(fmt.Errorf("unknown frontend %q", *frontend))
	}

	if *faultsSpec != "" {
		// With -shards the schedule spans the aggregate machine; the
		// sharded engine partitions it per shard with unit remapping.
		plan, err := parseFaults(*faultsSpec, opts.Config.NumSUs**shards, opts.Config.TotalEUs()**shards)
		if err != nil {
			usage(err)
		}
		opts.Faults = plan
	}
	if *watchdog > 0 {
		opts.Watchdog = &nvwa.Watchdog{MaxCycles: *watchdog}
	}

	var ob *obs.Observer
	if *traceOut != "" || *metricsOut != "" {
		ob = obs.New()
		opts.Obs = ob
	}
	if *ckptDir != "" {
		// A watchdog abort checkpoints the final pre-abort state so the
		// run can resume under a raised budget instead of being redone.
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fail(err)
		}
		dir := *ckptDir
		opts.OnAbort = func(ck *nvwa.Checkpoint) {
			p := filepath.Join(dir, "abort.ckpt")
			if err := nvwa.WriteCheckpoint(p, ck); err != nil {
				fmt.Fprintln(os.Stderr, "nvwa-sim: abort checkpoint:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "nvwa-sim: watchdog abort state checkpointed to", p)
		}
	}

	var rep *nvwa.Report
	var runErr error
	if *ckptDir != "" || *resume != "" {
		rep, runErr = runCheckpointed(aligner, opts, seqs, *ckptEvery, *ckptDir, *resume)
		if rep == nil {
			fail(runErr)
		}
	} else {
		// The sharded constructor delegates to the plain accelerator when
		// shards <= 1, so this single path is byte-identical to the
		// unsharded simulator at -shards 1.
		acc, err := nvwa.NewShardedAccelerator(aligner, nvwa.ShardedOptions{
			Options: opts, Shards: *shards, Policy: pol,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			fail(err)
		}
		rep, runErr = acc.RunChecked(seqs)
	}

	if ob != nil {
		if err := ob.Inv.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nvwa-sim: scheduler invariant violated:", err)
		}
		if err := writeObs(ob, *traceOut, *metricsOut); err != nil {
			fail(err)
		}
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

	if *jsonOut {
		rep.Results = nil // per-read results dominate the payload; omit
		rep.HitLens = nil
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		if runErr != nil {
			fail(fmt.Errorf("watchdog: %w", runErr))
		}
		return
	}

	fmt.Printf("configuration: %s\n", rep.Description)
	fmt.Printf("reads:         %d (%d hits, %d buffer switches)\n", rep.Reads, rep.TotalHits, rep.Switches)
	fmt.Printf("makespan:      %d cycles\n", rep.Cycles)
	fmt.Printf("throughput:    %.0f Kreads/s @ %g GHz\n", rep.ThroughputReadsPerSec/1000, opts.Config.ClockGHz)
	fmt.Printf("SU util:       %.1f%%\n", 100*rep.SUUtil)
	fmt.Printf("EU util:       %.1f%% (PE-level %.1f%%)\n", 100*rep.EUUtil, 100*rep.EUPEUtil)
	fmt.Printf("optimal alloc: %.1f%%\n", 100*rep.AllocStats.OptimalFraction())
	fmt.Printf("HBM:           %d accesses, %d row hits, %.2f GB, %.3f mJ\n",
		rep.HBM.Accesses, rep.HBM.RowHits, float64(rep.HBM.Bytes)/1e9, rep.HBM.EnergyPJ/1e9)
	aligned := 0
	for _, r := range rep.Results {
		if r.Found {
			aligned++
		}
	}
	fmt.Printf("aligned:       %d/%d reads\n", aligned, rep.Reads)
	fmt.Printf("energy:        %.3g J (%.2f W avg, %.3g J/read)\n",
		rep.Energy.TotalJ, rep.Energy.AvgPowerW, rep.Energy.PerReadJ)
	if rc := rep.Recovery; rc != nil {
		fmt.Printf("recovery:      %d crashes, %d cycles replayed; %d checkpoints (%d bytes)\n",
			rc.Crashes, rc.ReplayedCycles, rc.Checkpoints, rc.CheckpointBytes)
	}
	if f := rep.Faults; f != nil {
		fmt.Printf("faults:        %d planned, %d injected (%d absorbed, %d expired)\n",
			f.Planned, f.Injected, f.Absorbed, f.Expired)
		fmt.Printf("  unit losses: %d SU failed, %d EU failed; stalls %d+%d cyc, mem delay %d cyc\n",
			f.SUFailures, f.EUFailures, f.SUStallCycles, f.EUStallCycles, f.MemDelayCycles)
		fmt.Printf("  degradation: %d reads reseeded, %d abandoned; hits %d requeued, %d retried, %d dead-lettered, %d shed\n",
			f.ReadsReseeded, f.ReadsAbandoned, f.Requeued, f.Retried, f.DeadLettered, f.Shed)
		if f.DegradedThroughputRPS > 0 {
			fmt.Printf("  degraded throughput: %.0f Kreads/s\n", f.DegradedThroughputRPS/1000)
		}
		if f.WatchdogErr != "" {
			fmt.Printf("  watchdog: %s\n", f.WatchdogErr)
		}
	}
	if runErr != nil {
		fail(fmt.Errorf("watchdog: %w", runErr))
	}
}

// runCheckpointed runs the unsharded simulator incrementally,
// snapshotting every `every` cycles into dir (when every > 0) and
// optionally starting from a resume checkpoint instead of cycle 0. The
// returned report is byte-identical to an uninterrupted Run: stepping
// and snapshotting never perturb the event schedule.
func runCheckpointed(a *nvwa.Aligner, opts nvwa.Options, seqs []nvwa.Sequence, every int64, dir, resume string) (*nvwa.Report, error) {
	var sys *nvwa.Accelerator
	if resume != "" {
		ck, err := nvwa.ReadCheckpoint(resume)
		if err != nil {
			return nil, err
		}
		sys, err = nvwa.RestoreAccelerator(a, opts, seqs, ck)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "nvwa-sim: resumed at cycle %d (%d events replayed)\n", ck.Cycle, ck.Fired)
	} else {
		var err error
		sys, err = nvwa.NewAccelerator(a, opts)
		if err != nil {
			return nil, err
		}
		sys.Feed(seqs)
	}
	const horizon = int64(math.MaxInt64 >> 1) // run to quiescence
	boundary := horizon
	if every > 0 {
		boundary = every * (sys.Now()/every + 1)
	}
	for {
		done, err := sys.StepUntil(boundary)
		if done || err != nil {
			break // a watchdog abort is checkpointed by OnAbort and latched
		}
		if every > 0 && boundary < horizon {
			ck, err := sys.Snapshot()
			if err != nil {
				return nil, err
			}
			p := filepath.Join(dir, fmt.Sprintf("ckpt-%012d.ckpt", boundary))
			if err := nvwa.WriteCheckpoint(p, ck); err != nil {
				return nil, err
			}
			boundary += every
		}
	}
	return sys.DrainChecked()
}

// parseFaults decodes -faults: an explicit wire-form plan ("v1;...")
// or a generator spec instantiated over the configured unit counts.
func parseFaults(spec string, numSUs, numEUs int) (*nvwa.FaultPlan, error) {
	if strings.HasPrefix(spec, "v1") {
		return nvwa.ParseFaultPlan(spec)
	}
	sp, err := nvwa.ParseFaultSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.Generate(numSUs, numEUs), nil
}

func sample(seqs []nvwa.Sequence, n int) []nvwa.Sequence {
	if len(seqs) < n {
		return seqs
	}
	return seqs[:n]
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

// fail reports a runtime failure (exit 1).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-sim:", err)
	os.Exit(1)
}

// usage reports an invalid invocation (exit 2), matching the flag
// package's own exit code for unknown flags.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "nvwa-sim:", err)
	flag.Usage()
	os.Exit(2)
}
