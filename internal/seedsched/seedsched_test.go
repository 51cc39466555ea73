package seedsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvwa/internal/mem"
)

func TestAllocateSpecPaperExample(t *testing.T) {
	// Fig. 5(b), cycle T1+2: units 1 and 2 idle, unit 0 and 3 busy,
	// reads 0..3 already issued so next unallocated read is 4. Unit 1
	// must get read 4 and unit 2 read 5.
	busy := []bool{true, false, false, true}
	alloc, next := AllocateSpec(busy, 4)
	want := []int{-1, 4, 5, -1}
	for i := range want {
		if alloc[i] != want[i] {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
	if next != 6 {
		t.Errorf("next = %d, want 6", next)
	}
}

func TestAllocateSpecAllIdleAllBusy(t *testing.T) {
	alloc, next := AllocateSpec([]bool{false, false, false}, 10)
	for i, a := range alloc {
		if a != 10+i {
			t.Fatalf("all-idle alloc = %v", alloc)
		}
	}
	if next != 13 {
		t.Errorf("next = %d", next)
	}
	alloc, next = AllocateSpec([]bool{true, true}, 7)
	if alloc[0] != -1 || alloc[1] != -1 || next != 7 {
		t.Errorf("all-busy alloc = %v next = %d", alloc, next)
	}
}

func TestHardwarePathMatchesSpec(t *testing.T) {
	// The gate-level path (masks + AND + popcount tree + adder + mux)
	// must be cycle-for-cycle equivalent to Eq. (1)-(2).
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		busy := make([]bool, len(raw))
		for i, b := range raw {
			busy[i] = b&1 == 1
		}
		hw := NewOneCycleAllocator(len(busy))
		next := 0
		for round := 0; round < 3; round++ {
			wantAlloc, wantNext := AllocateSpec(busy, next)
			gotAlloc := hw.Allocate(busy)
			for i := range wantAlloc {
				if gotAlloc[i] != wantAlloc[i] {
					return false
				}
			}
			if hw.Next() != wantNext {
				return false
			}
			next = wantNext
			// Flip some statuses for the next round.
			for i := range busy {
				busy[i] = !busy[i]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocateNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hw := NewOneCycleAllocator(128)
	seen := map[int]bool{}
	busy := make([]bool, 128)
	for round := 0; round < 50; round++ {
		for i := range busy {
			busy[i] = rng.Intn(3) > 0
		}
		for _, a := range hw.Allocate(busy) {
			if a < 0 {
				continue
			}
			if seen[a] {
				t.Fatalf("read %d allocated twice", a)
			}
			seen[a] = true
		}
	}
	if hw.Next() != len(seen) {
		t.Errorf("offset %d != unique allocations %d", hw.Next(), len(seen))
	}
}

func TestTreeDepthMatchesPaper(t *testing.T) {
	// Sec. IV-B: 64 to 512 units give tree depths 6 to 9.
	cases := map[int]int{64: 6, 128: 7, 256: 8, 512: 9, 4: 2, 1: 0}
	for n, want := range cases {
		if got := NewOneCycleAllocator(n).TreeDepth(); got != want {
			t.Errorf("TreeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAllocatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero units")
		}
	}()
	NewOneCycleAllocator(0)
}

func TestAllocateStatusLengthPanics(t *testing.T) {
	hw := NewOneCycleAllocator(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for status length mismatch")
		}
	}()
	hw.Allocate(make([]bool, 5))
}

func TestBatchAllocator(t *testing.T) {
	b := NewBatchAllocator(4)
	// Mixed status: nothing allocated.
	alloc := b.Allocate([]bool{false, true, false, false})
	for _, a := range alloc {
		if a != -1 {
			t.Fatalf("batch allocator issued during a partial batch: %v", alloc)
		}
	}
	// All idle: whole batch issued.
	alloc = b.Allocate([]bool{false, false, false, false})
	for i, a := range alloc {
		if a != i {
			t.Fatalf("first batch = %v", alloc)
		}
	}
	alloc = b.Allocate([]bool{false, false, false, false})
	if alloc[0] != 4 || b.Next() != 8 {
		t.Errorf("second batch = %v, next = %d", alloc, b.Next())
	}
}

func TestBatchVsOneCycleUtilizationGap(t *testing.T) {
	// The motivating comparison of Fig. 5: with heterogeneous task
	// durations, One-Cycle keeps units busy while Read-in-Batch
	// serialises on the slowest unit. Simulate 4 units with skewed
	// durations and compare makespans for the same work.
	durations := []int{100, 10, 10, 10, 10, 10, 10, 100, 10, 10, 10, 10}
	run := func(alloc func(busy []bool) []int) int {
		freeAt := make([]int, 4)
		busy := make([]bool, 4)
		done := 0
		clock := 0
		for done < len(durations) && clock < 10000 {
			for i := range busy {
				busy[i] = freeAt[i] > clock
			}
			for i, a := range alloc(busy) {
				if a >= 0 && a < len(durations) {
					freeAt[i] = clock + durations[a]
					done++
				}
			}
			clock++
		}
		max := 0
		for _, f := range freeAt {
			if f > max {
				max = f
			}
		}
		return max
	}
	oc := NewOneCycleAllocator(4)
	batch := NewBatchAllocator(4)
	ocMakespan := run(oc.Allocate)
	bMakespan := run(batch.Allocate)
	if ocMakespan >= bMakespan {
		t.Errorf("one-cycle makespan %d not better than batch %d", ocMakespan, bMakespan)
	}
}

func TestReadSPMHidesLatency(t *testing.T) {
	hbm := mem.NewHBM(mem.HBM1())
	p := NewReadSPM(hbm, 64, 32, 8)
	// First access pays DRAM latency.
	first := p.ReadyAt(0, 0)
	if first <= 1 {
		t.Errorf("first read ready at %d, should include DRAM latency", first)
	}
	// Sequential reads inside the prefetch window are served from SPM.
	now := first + 1000
	for idx := 1; idx < 32; idx++ {
		at := p.ReadyAt(now, idx)
		if at != now+1 {
			t.Fatalf("read %d ready at %d, want %d (SPM hit)", idx, at, now+1)
		}
	}
	if p.Fetched() < 64 {
		t.Errorf("prefetcher fetched only %d reads", p.Fetched())
	}
}

func TestReadSPMMonotoneCompletion(t *testing.T) {
	hbm := mem.NewHBM(mem.HBM1())
	p := NewReadSPM(hbm, 16, 64, 4)
	var prev int64
	for idx := 0; idx < 100; idx += 7 {
		at := p.ReadyAt(prev, idx)
		if at <= prev {
			t.Fatalf("read %d ready at %d, not after %d", idx, at, prev)
		}
		prev = at
	}
}

func TestReadSPMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReadSPM(mem.NewHBM(mem.HBM1()), 0, 32, 8)
}
