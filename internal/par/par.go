// Package par runs independent, indexed jobs on a bounded pool of
// goroutines: the one worker pool behind the memo build, the balanced
// policy's cost probe, the shard fan-out, the software aligner's
// AlignAll and the experiment Runner.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on workers goroutines (<= 0
// means GOMAXPROCS, and never more than n; one runs inline) and returns
// when all calls have. Each index is handed to exactly one call, so fn
// may write slot i of a shared slice without locking. A panic in any
// call stops the hand-out and is re-raised on the caller's goroutine
// once the pool drains, so a failing job behaves like its serial self.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
					next.Store(int64(n)) // hand out no more work
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
