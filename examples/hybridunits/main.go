// Hybridunits: walks through the Extension Scheduler's design flow —
// the Formula 3 latency trade-off (Fig. 8), the Fig. 9 toy schedule,
// and sizing a hybrid pool from a real hit-length distribution with
// Eq. (4)-(5), exactly as the paper derives its 28/20/16/6 pool.
package main

import (
	"fmt"
	"log"

	"nvwa"
	"nvwa/internal/experiments"
	"nvwa/internal/extsched"
	"nvwa/internal/systolic"
)

func main() {
	// Formula 3: latency of a hit on different array widths.
	fmt.Println("Formula 3 latency, hit length 20 vs 127:")
	for _, p := range []int{16, 32, 64, 128} {
		fmt.Printf("  P=%3d: len20 -> %3d cycles, len127 -> %4d cycles\n",
			p, systolic.Latency(20, 20, p), systolic.Latency(127, 127, p))
	}

	// The paper's Fig. 9 toy: 455 vs 257 cycles.
	fmt.Println(experiments.Fig9().Format())

	// Derive a hybrid pool from an actual workload.
	ref := nvwa.GenerateReference(nvwa.HumanLikeProfile(), 100000, 11)
	aligner := nvwa.NewAligner(ref)
	reads := nvwa.Sequences(nvwa.SimulateReads(ref, 800, nvwa.ShortReads(12)))

	lens := aligner.HitLengths(reads)
	classifier := extsched.NewClassifier(nvwa.DefaultConfig().EUClasses)
	dist := classifier.Histogram(lens)
	fmt.Printf("hit-length distribution over intervals 16/32/64/128: %v\n", dist)

	classes, err := extsched.SolveHybrid(dist, extsched.PowerOfTwoSizes(4, 16), 2880)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("Eq. (5) solution under a 2880-PE budget: ")
	for _, c := range classes {
		fmt.Printf("%dx%dPE ", c.Count, c.PEs)
	}
	fmt.Println("\n(the paper derives 28x16 20x32 16x64 6x128 from NA12878)")

	// Reproduce the paper's exact Sec. V-A configuration from a
	// distribution proportional to its unit counts.
	paperClasses, err := extsched.SolveHybrid(extsched.Distribution{28, 20, 16, 6}, []int{16, 32, 64, 128}, 2880)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper-distribution check: %v\n", paperClasses)
}
