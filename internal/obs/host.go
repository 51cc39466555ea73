package obs

import "runtime"

// HostGC is a snapshot of the host Go runtime's memory and collector
// state at measurement time. Benchmark emitters attach it to their
// JSON host block so a perf row carries the GC context it was measured
// under: a run that spent milliseconds in collector pauses, or that
// grew the heap past the simulator's steady-state footprint, is not
// comparable to one that did not — exactly the signal the arena and
// calendar-queue work targets (allocation-free hot paths keep every
// field flat between snapshots).
type HostGC struct {
	// HeapAllocBytes is the live heap at snapshot time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// TotalAllocBytes is the cumulative bytes allocated by the process.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// NumGC is the number of completed collection cycles.
	NumGC uint32 `json:"num_gc"`
	// PauseTotalNs is the cumulative stop-the-world pause time.
	PauseTotalNs uint64 `json:"pause_total_ns"`
}

// ReadHostGC captures the current runtime memory/GC counters.
func ReadHostGC() HostGC {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HostGC{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		PauseTotalNs:    ms.PauseTotalNs,
	}
}
