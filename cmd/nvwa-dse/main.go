// Command nvwa-dse sweeps the Coordinator design space (paper
// Fig. 13) and prints CSV: one row per (hits-buffer depth, interval
// count) point with throughput, utilizations, and Coordinator power.
//
// Usage:
//
//	nvwa-dse [-reads N] [-reflen N] [-seed N]
//	         [-depths 64,256,1024,4096] [-intervals 1,2,4,8]
//	         [-j N]
//
// Every design point replays the workload's one functional memo cache
// (accel.Memo), so each point simulates only the cycle model. -j N
// fans the independent design points across N workers (default 1; 0
// means GOMAXPROCS); the CSV is byte-identical to the one-worker sweep.
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
