package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("std = %v, want 2", s.Std)
	}
	if math.Abs(s.CV-0.4) > 1e-12 {
		t.Errorf("cv = %v", s.CV)
	}
	if s.Min != 2 || s.Max != 9 || s.Median != 5 {
		t.Errorf("min/max/median = %v/%v/%v", s.Min, s.Max, s.Median)
	}
}

func TestSummarizeEmptyAndZeroMean(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Error("empty summary wrong")
	}
	if s := Summarize([]float64{-1, 1}); s.CV != 0 {
		t.Error("zero-mean CV should be 0, not Inf")
	}
}

func TestIntervalHistogram(t *testing.T) {
	h := NewIntervalHistogram([]int{16, 32, 64, 128}, []int{7, 16, 17, 40, 103, 127, 128, 500})
	want := []int{2, 1, 1, 4} // 500 lands in the last bucket
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Total != 8 {
		t.Errorf("total = %d", h.Total)
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestIntervalHistogramFractionsSumToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		h := NewIntervalHistogram([]int{16, 32, 64, 128}, xs)
		if len(xs) == 0 {
			return h.Total == 0
		}
		sum := 0.0
		for _, fr := range h.Fractions() {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalHistogramString(t *testing.T) {
	h := NewIntervalHistogram([]int{16, 128}, []int{5, 200})
	s := h.String()
	if !strings.Contains(s, "(0,16]") || !strings.Contains(s, "inf") {
		t.Errorf("render:\n%s", s)
	}
	empty := NewIntervalHistogram([]int{16}, nil)
	if empty.String() == "" {
		t.Error("empty histogram should still render")
	}
}
