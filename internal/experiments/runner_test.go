package experiments

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunnerMapOrderPreserving(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 4, 16} {
		r := NewRunner(workers)
		const n = 100
		out := make([]int, n)
		r.Map(n, func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunnerMapRunsEachIndexOnce(t *testing.T) {
	t.Parallel()
	r := NewRunner(8)
	const n = 500
	counts := make([]int64, n)
	var total int64
	r.Map(n, func(i int) {
		atomic.AddInt64(&counts[i], 1)
		atomic.AddInt64(&total, 1)
	})
	if total != n {
		t.Fatalf("ran %d calls, want %d", total, n)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestRunnerMapEmptyAndSerial(t *testing.T) {
	t.Parallel()
	ran := 0
	Serial().Map(0, func(int) { ran++ })
	NewRunner(4).Map(0, func(int) { ran++ })
	if ran != 0 {
		t.Fatal("Map(0) ran the function")
	}
	// Serial Map must execute in program order on the calling goroutine.
	var order []int
	Serial().Map(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestRunnerMapPanicsPropagate(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	NewRunner(4).Map(32, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestRunnerPolicies(t *testing.T) {
	t.Parallel()
	if Serial().Parallel() || Serial().UseMemo() {
		t.Fatal("Serial must be one worker without memo")
	}
	if Serial().String() != "serial" {
		t.Fatalf("Serial name %q", Serial().String())
	}
	r := NewRunner(0)
	if r.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers %d", r.Workers())
	}
	four := NewRunner(4)
	if !four.Parallel() || !four.UseMemo() {
		t.Fatal("multi-worker runner should enable memo replay")
	}
	if !strings.Contains(four.String(), "j=4") {
		t.Fatalf("name %q", four.String())
	}
	if p := four.WithSoftwareRPS(5e5); p.swRPS != 5e5 || four.swRPS != 0 {
		t.Fatal("WithSoftwareRPS must copy, not mutate")
	}
	var nilRunner *Runner
	if nilRunner.Workers() != 1 || nilRunner.UseMemo() {
		t.Fatal("nil runner must behave serially")
	}
}
