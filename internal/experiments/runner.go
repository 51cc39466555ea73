package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nvwa/internal/accel"
)

// Runner is the experiment-execution policy: how many workers fan the
// independent artifacts of an experiment (Fig. 11's ablation configs,
// Fig. 13's sweep points, Fig. 14's dataset rows, the front-end rows)
// across the host, and whether the shared functional-replay memo cache
// (accel.Memo) backs the simulated Systems.
//
// Determinism contract: for any Runner, every experiment produces
// byte-identical formatted output and identical result structs to the
// serial Runner, as long as the measured-software-throughput fields
// are pinned with WithSoftwareRPS (wall-clock measurements are the
// only nondeterministic inputs an experiment has). Each parallel job
// writes only its own index of a preallocated result slice, so
// collection order is the program order, never the completion order.
// The golden tests in determinism_test.go enforce the contract.
type Runner struct {
	workers   int
	memo      bool
	swRPS     float64
	shards    int
	policy    accel.ShardPolicy
	ckptEvery int64
}

// Serial returns the bisection-friendly reference policy: one worker,
// no memo replay — exactly the code path the repository shipped with.
func Serial() *Runner { return &Runner{workers: 1} }

// NewRunner returns a policy with the given worker count (0 or
// negative means runtime.GOMAXPROCS). More than one worker enables
// memo replay, since sharing the precomputed functional results is
// what makes the fan-out profitable.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: workers > 1}
}

// WithSoftwareRPS pins the software-pipeline throughput (reads/sec)
// experiments would otherwise measure by wall clock, making their
// output fully deterministic. Zero restores measurement.
func (r *Runner) WithSoftwareRPS(rps float64) *Runner {
	c := *r
	c.swRPS = rps
	return &c
}

// WithShards routes every Env-backed simulation through the sharded
// scale-out engine: the read set is partitioned into s shards under
// pol and simulated as s independent chips on the runner's worker
// pool, with Reports merged deterministically (see accel.ShardedSystem
// for the merge semantics). s <= 1 restores the unsharded path. This
// is what lets a single large simulation — not just a fan of variants
// — scale with the worker count.
func (r *Runner) WithShards(s int, pol accel.ShardPolicy) *Runner {
	c := *r
	c.shards = s
	c.policy = pol
	return &c
}

// WithCheckpointEvery makes sharded Env-backed runs snapshot every
// shard at each multiple of n cycles (accel.ShardedOptions.
// CheckpointEvery): the preemption/recovery machinery runs inside the
// sweep, and its overhead shows up in wall-clock without perturbing
// any simulated figure. n <= 0 disables. Unsharded runs ignore it.
func (r *Runner) WithCheckpointEvery(n int64) *Runner {
	c := *r
	c.ckptEvery = n
	return &c
}

// CheckpointEvery returns the configured checkpoint interval in
// cycles (0 = no periodic checkpoints).
func (r *Runner) CheckpointEvery() int64 {
	if r == nil || r.ckptEvery < 0 {
		return 0
	}
	return r.ckptEvery
}

// Shards returns the configured shard count (1 = unsharded).
func (r *Runner) Shards() int {
	if r == nil || r.shards < 1 {
		return 1
	}
	return r.shards
}

// ShardPolicy returns the configured read-partitioning policy.
func (r *Runner) ShardPolicy() accel.ShardPolicy {
	if r == nil {
		return accel.ShardContiguous
	}
	return r.policy
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int {
	if r == nil || r.workers <= 0 {
		return 1
	}
	return r.workers
}

// Parallel reports whether the policy fans work out.
func (r *Runner) Parallel() bool { return r.Workers() > 1 }

// UseMemo reports whether Env-backed runs should replay the memo.
func (r *Runner) UseMemo() bool { return r != nil && r.memo }

// String names the policy for logs and bench rows.
func (r *Runner) String() string {
	var s string
	if !r.Parallel() {
		s = "serial"
	} else {
		memo := "memo"
		if !r.UseMemo() {
			memo = "no-memo"
		}
		s = fmt.Sprintf("parallel(j=%d,%s)", r.Workers(), memo)
	}
	if r.Shards() > 1 {
		s += fmt.Sprintf(",shards=%d(%s)", r.Shards(), r.ShardPolicy())
	}
	return s
}

// Map runs fn(0..n-1) on the worker pool and returns when all calls
// finished. Each index is claimed by exactly one worker; fn writes its
// result into the caller's slice at its own index, which is what keeps
// result collection order-preserving regardless of completion order.
// A panic in any fn is re-raised on the caller's goroutine after the
// pool drains, so a failing experiment behaves like its serial self.
func (r *Runner) Map(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = p
							}
							panicMu.Unlock()
							// Drain remaining work so the pool exits fast.
							atomic.StoreInt64(&next, int64(n))
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
