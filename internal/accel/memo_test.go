package accel

import (
	"reflect"
	"sync"
	"testing"

	"nvwa/internal/pipeline"
)

// TestMemoReplayByteIdenticalReport is the accelerator-level half of
// the determinism contract: a System backed by the functional-replay
// cache must produce a Report deeply equal to the direct System's —
// same cycles, same results, same utilization series, same energy.
func TestMemoReplayByteIdenticalReport(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 150, 17)
	memo := BuildMemo(a, nil, reads, 4)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"nvwa", smallOpts()},
		{"baseline", smallBaselineOpts()},
	} {
		direct, err := New(a, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		directRep := direct.Run(reads)

		o := tc.opts
		o.Memo = memo
		replay, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if replay.memo == nil {
			t.Fatalf("%s: memo not consumed", tc.name)
		}
		replayRep := replay.Run(reads)

		if !reflect.DeepEqual(directRep, replayRep) {
			t.Errorf("%s: replayed Report diverges from direct Report", tc.name)
			if directRep.Cycles != replayRep.Cycles {
				t.Errorf("  cycles: direct %d, replay %d", directRep.Cycles, replayRep.Cycles)
			}
			if directRep.TotalHits != replayRep.TotalHits {
				t.Errorf("  hits: direct %d, replay %d", directRep.TotalHits, replayRep.TotalHits)
			}
		}
	}
}

// TestMemoForeignSeederIgnored checks the front-end guard: a memo
// built over the default FM-index pipeline must not be consumed by a
// system configured with a different Seeder.
func TestMemoForeignSeederIgnored(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 40, 23)
	memo := BuildMemo(a, nil, reads, 2)
	ms, err := pipeline.NewMinimizerSeeder(a, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Seeder = ms
	o.Memo = memo
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo != nil {
		t.Fatal("memo built for the FM-index front end was consumed by a minimizer-seeded system")
	}
	// The run must still complete correctly off the live seeder.
	rep := sys.Run(reads)
	if rep.Reads != len(reads) {
		t.Fatalf("processed %d reads", rep.Reads)
	}
}

// TestMemoSharedAcrossConcurrentSystems runs many Systems off one Memo
// at once — the parallel experiment engine's exact shape — and checks
// every run agrees with the serial reference. Run under -race this is
// the memo's thread-safety proof.
func TestMemoSharedAcrossConcurrentSystems(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 100, 31)
	memo := BuildMemo(a, nil, reads, 4)

	ref, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(reads)

	const n = 8
	reps := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := smallOpts()
			o.Memo = memo
			sys, err := New(a, o)
			if err != nil {
				panic(err)
			}
			reps[i] = sys.Run(reads)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if !reflect.DeepEqual(want, rep) {
			t.Fatalf("concurrent run %d diverges from serial reference", i)
		}
	}
}

// TestMemoFallbackPaths exercises the cache-miss path: a memo over the
// first 20 reads, attached to a run over 30, replays the reads it holds
// and fills the other ten itself, and the Report equals the direct
// run's.
func TestMemoFallbackPaths(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 41)
	memo := BuildMemo(a, nil, reads[:20], 2)
	if memo.record(3, reads[3]) == nil || memo.record(25, reads[25]) != nil || memo.record(3, reads[4]) != nil {
		t.Fatal("memo serves a read it does not hold, or misses one it does")
	}
	direct, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Run(reads)
	opts := smallOpts()
	opts.Memo = memo
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.memo == nil {
		t.Fatal("memo not consumed")
	}
	if got := s.Run(reads); !reflect.DeepEqual(want, got) {
		t.Fatal("run over a partial memo diverges from the direct run")
	}
}
