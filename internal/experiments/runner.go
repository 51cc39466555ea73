package experiments

import (
	"fmt"
	"runtime"

	"nvwa/internal/par"
)

// Runner is the experiment-execution policy: how many workers fan the
// independent artifacts of an experiment (Fig. 11's ablation configs,
// Fig. 13's sweep points, Fig. 14's dataset rows, the front-end rows)
// across the host.
//
// Determinism contract: for any Runner, every experiment produces
// byte-identical formatted output and identical result structs to the
// serial Runner, as long as the measured software throughput is pinned
// (swRPS; wall-clock measurements are the only nondeterministic inputs
// an experiment has, and the golden tests pin them in-package). Each
// parallel job writes only its own index of a preallocated result
// slice, so collection order is the program order, never the
// completion order. The golden tests in determinism_test.go enforce
// the contract.
type Runner struct {
	workers int
	// swRPS, when positive, replaces the measured software-pipeline
	// throughput (reads/sec).
	swRPS float64
}

// NewRunner returns a policy with the given worker count (0 or
// negative means runtime.GOMAXPROCS).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// size returns the worker-pool size.
func (r *Runner) size() int {
	if r == nil || r.workers <= 0 {
		return 1
	}
	return r.workers
}

// String names the policy for logs.
func (r *Runner) String() string {
	if n := r.size(); n > 1 {
		return fmt.Sprintf("parallel(j=%d)", n)
	}
	return "serial"
}

// Map runs fn(0..n-1) on the worker pool and returns when all calls
// finished. Each index is claimed by exactly one worker; fn writes its
// result into the caller's slice at its own index, which is what keeps
// result collection order-preserving regardless of completion order.
// A panic in any fn is re-raised on the caller's goroutine after the
// pool drains, so a failing experiment behaves like its serial self.
func (r *Runner) Map(n int, fn func(i int)) { par.For(n, r.size(), fn) }
