package extsched

import (
	"math/rand"
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/systolic"
)

func TestSolveHybridReproducesPaperConfig(t *testing.T) {
	// Sec. V-A: with the NA12878 hit distribution and N=2880 PEs over
	// sizes 16/32/64/128, the paper derives 28/20/16/6 units. A
	// distribution proportional to those counts must reproduce them.
	s := Distribution{28, 20, 16, 6}
	classes, err := SolveHybrid(s, []int{16, 32, 64, 128}, 2880)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.EUClass{{PEs: 16, Count: 28}, {PEs: 32, Count: 20}, {PEs: 64, Count: 16}, {PEs: 128, Count: 6}}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("classes = %v, want %v", classes, want)
		}
	}
}

func TestSolveHybridBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := PowerOfTwoSizes(n, 16)
		s := make(Distribution, n)
		for i := range s {
			s[i] = rng.Float64() * 100
		}
		s[rng.Intn(n)] += 1 // ensure nonzero mass
		budget := p[n-1] + rng.Intn(4000)
		classes, err := SolveHybrid(s, p, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sumSizes := 0
		for _, v := range p {
			sumSizes += v
		}
		used := 0
		for i, c := range classes {
			used += c.PEs * c.Count
			// Every populated interval gets a unit whenever the budget
			// can afford one of each class.
			if s[i] > 0 && c.Count == 0 && budget >= sumSizes {
				t.Fatalf("trial %d: populated interval %d got zero units (budget %d)", trial, i, budget)
			}
		}
		if used > budget {
			t.Fatalf("trial %d: used %d PEs, budget %d", trial, used, budget)
		}
		// The solver should not leave a whole smallest unit of slack.
		if budget-used >= p[0] {
			t.Fatalf("trial %d: left %d PEs unused (smallest unit %d)", trial, budget-used, p[0])
		}
	}
}

func TestSolveHybridProportionality(t *testing.T) {
	// With a large budget, unit counts should approximate the exact
	// Eq. (5) ratios.
	s := Distribution{40, 30, 20, 10}
	p := []int{16, 32, 64, 128}
	classes, err := SolveHybrid(s, p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	denom := 0.0
	for i := range p {
		denom += float64(p[i]) * s[i]
	}
	for i, c := range classes {
		exact := s[i] * 100000 / denom
		if d := float64(c.Count) - exact; d > 1.5 || d < -1.5 {
			t.Errorf("class %d: count %d, exact %.2f", i, c.Count, exact)
		}
	}
}

func TestSolveHybridErrors(t *testing.T) {
	if _, err := SolveHybrid(Distribution{1}, []int{16, 32}, 100); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SolveHybrid(Distribution{}, []int{}, 100); err == nil {
		t.Error("empty classes accepted")
	}
	if _, err := SolveHybrid(Distribution{1, 1}, []int{32, 16}, 100); err == nil {
		t.Error("non-increasing sizes accepted")
	}
	if _, err := SolveHybrid(Distribution{0, 0}, []int{16, 32}, 100); err == nil {
		t.Error("zero distribution accepted")
	}
	if _, err := SolveHybrid(Distribution{1, -2}, []int{16, 32}, 100); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := SolveHybrid(Distribution{1, 1}, []int{16, 32}, 8); err == nil {
		t.Error("budget below largest unit accepted")
	}
}

func TestPowerOfTwoSizes(t *testing.T) {
	got := PowerOfTwoSizes(4, 16)
	want := []int{16, 32, 64, 128}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v", got)
		}
	}
}

func TestClassifierOptimalClass(t *testing.T) {
	c := NewClassifier(core.DefaultConfig().EUClasses)
	cases := map[int]int{
		0: 0, 7: 0, 16: 0,
		17: 1, 29: 1, 32: 1,
		40: 2, 64: 2,
		65: 3, 103: 3, 127: 3, 128: 3,
		500: 3, // beyond the largest class still maps to it (iterative GACT)
	}
	for l, want := range cases {
		if got := c.OptimalClass(l); got != want {
			t.Errorf("OptimalClass(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestClassifierHistogram(t *testing.T) {
	c := NewClassifier(core.DefaultConfig().EUClasses)
	d := c.Histogram([]int{7, 29, 40, 103, 5, 120})
	want := Distribution{2, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", d, want)
		}
	}
}

func TestLatencyOnOptimality(t *testing.T) {
	// For each class boundary length, the designated class must be the
	// latency-optimal choice among the pool sizes under Formula 3 with
	// R = Q = hit length.
	sizes := []int{16, 32, 64, 128}
	c := NewClassifier(core.DefaultConfig().EUClasses)
	for _, l := range []int{5, 16, 20, 32, 50, 64, 100, 128} {
		opt := c.OptimalClass(l)
		best := systolic.Latency(l, l, sizes[opt])
		for _, p := range sizes {
			if systolic.Latency(l, l, p) < best {
				t.Errorf("len %d: class %d (P=%d, L=%d) beaten by P=%d (L=%d)",
					l, opt, sizes[opt], best, p, systolic.Latency(l, l, p))
			}
		}
	}
}

func TestTrigger(t *testing.T) {
	tr := NewTrigger(70, 0.15)
	if tr.ShouldSchedule(0) {
		t.Error("zero idle should not trigger")
	}
	if tr.ShouldSchedule(10) {
		t.Error("10/70 = 14%% should not trigger at 15%%")
	}
	if !tr.ShouldSchedule(11) {
		t.Error("11/70 = 15.7%% should trigger")
	}
	if !tr.ShouldSchedule(70) {
		t.Error("all idle should trigger")
	}
	zero := NewTrigger(10, 0)
	if !zero.ShouldSchedule(1) {
		t.Error("zero threshold should trigger on any idle unit")
	}
	if zero.ShouldSchedule(0) {
		t.Error("zero idle must never trigger")
	}
}

func TestTriggerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrigger(0, 0.5)
}
