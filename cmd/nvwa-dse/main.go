// Command nvwa-dse sweeps the Coordinator design space (paper
// Fig. 13) and prints CSV: one row per (hits-buffer depth, interval
// count) point with throughput, utilizations, and Coordinator power.
//
// Usage:
//
//	nvwa-dse [-reads N] [-reflen N] [-seed N]
//	         [-depths 64,256,1024,4096] [-intervals 1,2,4,8]
//	         [-j N]
//	         [-shards S] [-shard-policy contiguous|interleaved|balanced]
//	         [-checkpoint-every N]
//
// Every design point replays the workload's one functional memo cache
// (accel.Memo), so each point simulates only the cycle model. -j N
// fans the independent design points across N workers (default 1; 0
// means GOMAXPROCS); the CSV is byte-identical to the one-worker sweep.
//
// -shards S routes every design-point simulation through the sharded
// scale-out engine (S chips over a partitioned read set, reports
// merged deterministically), so each point additionally scales with
// the worker pool. The CSV then describes the merged S-chip machine.
// -checkpoint-every N additionally snapshots every shard at each
// multiple of N cycles, exercising the preemption machinery inside the
// sweep; checkpointing never changes the simulated figures, so the CSV
// rows are identical with it on or off.
//
// Exit codes: 0 success; 2 usage error (unknown flag, malformed or
// non-positive sweep values, a negative -j, a -reflen too short for
// the reads).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nvwa/internal/accel"
	"nvwa/internal/energy"
	"nvwa/internal/experiments"
	"nvwa/internal/genome"
)

func main() {
	reads := flag.Int("reads", 3000, "number of simulated reads")
	refLen := flag.Int("reflen", 150000, "synthetic reference length (bp)")
	seed := flag.Int64("seed", 42, "random seed")
	depths := flag.String("depths", "64,256,1024,4096", "hits-buffer depths to sweep")
	intervals := flag.String("intervals", "1,2,4,8", "interval counts to sweep")
	jobs := flag.Int("j", 1, "fan independent design points across N workers (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "simulate S independent chips per design point and merge reports (1 = unsharded)")
	shardPolicy := flag.String("shard-policy", "contiguous", "read partitioning policy for -shards: contiguous, interleaved, or balanced")
	ckptEvery := flag.Int64("checkpoint-every", 0, "with -shards: snapshot every shard at each multiple of N cycles (0 = off; figures are unchanged either way)")
	flag.Parse()

	if flag.NArg() > 0 {
		fail(fmt.Errorf("nvwa-dse: unexpected arguments: %v", flag.Args()))
	}
	if *reads <= 0 || *refLen <= 0 {
		fail(fmt.Errorf("nvwa-dse: -reads and -reflen must be positive (got %d, %d)", *reads, *refLen))
	}
	if err := genome.CheckRefLen(*refLen, genome.ShortReadConfig(0).ReadLen); err != nil {
		fail(fmt.Errorf("nvwa-dse: -reflen: %w", err))
	}
	ds, err := parseInts(*depths)
	if err != nil {
		fail(err)
	}
	ns, err := parseInts(*intervals)
	if err != nil {
		fail(err)
	}
	if *jobs < 0 {
		fail(fmt.Errorf("nvwa-dse: -j must be >= 0, got %d", *jobs))
	}
	runner := experiments.NewRunner(*jobs)
	if *shards < 1 {
		fail(fmt.Errorf("nvwa-dse: -shards must be >= 1, got %d", *shards))
	}
	pol, err := accel.ParseShardPolicy(*shardPolicy)
	if err != nil {
		fail(fmt.Errorf("nvwa-dse: %w", err))
	}
	if *ckptEvery < 0 {
		fail(fmt.Errorf("nvwa-dse: -checkpoint-every must be >= 0, got %d", *ckptEvery))
	}
	if *shards > 1 {
		runner = runner.WithShards(*shards, pol).WithCheckpointEvery(*ckptEvery)
	} else if *ckptEvery > 0 {
		fail(fmt.Errorf("nvwa-dse: -checkpoint-every requires -shards > 1"))
	}

	fmt.Fprintf(os.Stderr, "building workload: %d bp, %d reads (%s)...\n", *refLen, *reads, runner)
	env := experiments.NewEnv(*refLen, *reads, *seed)

	fmt.Println("sweep,param,throughput_kreads,su_util,eu_util,coord_buffer_w,coord_logic_w")
	for _, row := range experiments.Fig13aWith(env, ds, runner) {
		bw, lw := energy.CoordinatorPower(4, row.Depth)
		fmt.Printf("depth,%d,%.0f,%.4f,%.4f,%.4f,%.4f\n",
			row.Depth, row.ThroughputKReads, row.SUUtil, row.EUUtil, bw, lw)
	}
	for _, row := range experiments.Fig13bWith(env, ns, runner) {
		fmt.Printf("intervals,%d,%.0f,,,%.4f,%.4f\n",
			row.Intervals, row.ThroughputKReads, row.BufferPowerW, row.LogicPowerW)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("nvwa-dse: bad integer %q", f)
		}
		if v <= 0 {
			return nil, fmt.Errorf("nvwa-dse: sweep values must be positive, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
