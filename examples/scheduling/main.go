// Scheduling: demonstrates the paper's Challenge-1 and the One-Cycle
// Read Allocator. It first replays the Fig. 5 toy comparison, then
// simulates the full accelerator under both seeding strategies and
// shows the SU-utilization gap of Fig. 12(a)/(b).
package main

import (
	"fmt"
	"log"

	"nvwa"
	"nvwa/internal/accel"
	"nvwa/internal/experiments"
	"nvwa/internal/seedsched"
)

func main() {
	// The Eq. (1)-(2) allocator on one status vector.
	busy := []bool{true, false, false, true}
	alloc, next := seedsched.AllocateSpec(busy, 4)
	fmt.Printf("status %v, next read 4 -> allocation %v, next %d (paper Fig. 5(b))\n", busy, alloc, next)

	// The toy schedule of Fig. 5.
	fmt.Println(experiments.Fig5().Format())

	// Full-system effect: same workload, both strategies.
	ref := nvwa.GenerateReference(nvwa.HumanLikeProfile(), 100000, 7)
	aligner := nvwa.NewAligner(ref)
	reads := nvwa.Sequences(nvwa.SimulateReads(ref, 1500, nvwa.ShortReads(8)))

	for _, strat := range []accel.SeedStrategy{accel.OneCycle, accel.ReadInBatch} {
		opts, err := nvwa.DerivedOptions(aligner, reads[:500])
		if err != nil {
			log.Fatal(err)
		}
		opts.SeedStrategy = strat
		acc, err := nvwa.NewAccelerator(aligner, opts)
		if err != nil {
			log.Fatal(err)
		}
		rep := acc.Run(reads)
		fmt.Printf("%-14s makespan %8d cycles, SU util %5.1f%%, throughput %8.0f Kreads/s\n",
			strat, rep.Cycles, 100*rep.SUUtil, rep.ThroughputReadsPerSec/1000)
	}
}
