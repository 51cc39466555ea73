// Package stats provides the small statistical helpers the experiment
// harness uses: summary statistics for execution-time diversity
// (Fig. 2) and interval histograms for hit-length distributions
// (Fig. 9(a), Fig. 14(b)).
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N                int
	Mean, Std, CV    float64
	Min, Max, Median float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = sorted[len(sorted)/2]
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	if s.Mean != 0 {
		s.CV = s.Std / s.Mean
	}
	return s
}

// IntervalHistogram buckets values by upper bounds: bucket i holds
// values <= bounds[i] (and the last bucket additionally holds
// everything larger). Fractions sum to 1 for nonempty input.
type IntervalHistogram struct {
	Bounds []int
	Counts []int
	Total  int
}

// NewIntervalHistogram buckets xs by the given ascending bounds.
func NewIntervalHistogram(bounds []int, xs []int) IntervalHistogram {
	h := IntervalHistogram{Bounds: append([]int(nil), bounds...), Counts: make([]int, len(bounds))}
	for _, x := range xs {
		idx := len(bounds) - 1
		for i, b := range bounds {
			if x <= b {
				idx = i
				break
			}
		}
		h.Counts[idx]++
		h.Total++
	}
	return h
}

// Fractions returns each bucket's share of the sample.
func (h IntervalHistogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}
