package pipeline

import (
	"time"

	"nvwa/internal/par"
	"nvwa/internal/seq"
)

// PhaseProfile is the per-read execution-time breakdown of Fig. 2.
type PhaseProfile struct {
	// ReadID indexes the profiled read.
	ReadID int
	// SeedingNS is wall time spent in seeding (find seeds + filter &
	// chain) in nanoseconds.
	SeedingNS int64
	// ExtensionNS is wall time spent in seed extension.
	ExtensionNS int64
	// Hits is the number of chains extended.
	Hits int
}

// TotalNS returns the read's total pipeline time.
func (p PhaseProfile) TotalNS() int64 { return p.SeedingNS + p.ExtensionNS }

// SeedingFraction returns seeding's share of the read's time.
func (p PhaseProfile) SeedingFraction() float64 {
	t := p.TotalNS()
	if t == 0 {
		return 0
	}
	return float64(p.SeedingNS) / float64(t)
}

// Profile measures the per-read seeding/extension breakdown, the data
// behind Fig. 2's diversity observation.
func (a *Aligner) Profile(reads []seq.Seq) []PhaseProfile {
	out := make([]PhaseProfile, len(reads))
	for i, r := range reads {
		t0 := time.Now()
		hits, _ := a.SeedAndChain(i, r)
		t1 := time.Now()
		a.Finish(r, hits)
		t2 := time.Now()
		out[i] = PhaseProfile{
			ReadID:      i,
			SeedingNS:   t1.Sub(t0).Nanoseconds(),
			ExtensionNS: t2.Sub(t1).Nanoseconds(),
			Hits:        len(hits),
		}
	}
	return out
}

// AlignAll aligns reads on the given number of threads (0 = GOMAXPROCS)
// and returns the results, each read's mapping quality (MapQ over its
// best and second-best extension scores, from the same pass), and the
// measured throughput in reads/sec — the repository's stand-in for the
// paper's 16-thread BWA-MEM CPU baseline.
func (a *Aligner) AlignAll(reads []seq.Seq, threads int) ([]Result, []int, float64) {
	results := make([]Result, len(reads))
	mapq := make([]int, len(reads))
	start := time.Now()
	par.For(len(reads), threads, func(i int) {
		results[i], mapq[i] = a.alignMapQ(i, reads[i])
	})
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return results, mapq, float64(len(reads)) / elapsed
}

// HitLengths collects the extension lengths (the paper's hit_len) of
// every hit across the reads — the input to the Hybrid Units Strategy
// solver and the Fig. 9(a)/14(b) distributions.
func (a *Aligner) HitLengths(reads []seq.Seq) []int {
	var out []int
	for i, r := range reads {
		hits, _ := a.SeedAndChain(i, r)
		for _, h := range hits {
			out = append(out, h.SchedLen())
		}
	}
	return out
}
