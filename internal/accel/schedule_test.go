package accel

import (
	"testing"

	"nvwa/internal/fault"
)

// TestSchedulePinned pins the event schedule: the engine's fired count
// and next sequence number at quiescence, for a One-Cycle run, a
// Read-in-Batch run, and a faulted Read-in-Batch run whose EU failures
// send hits through the retry path, whose SU failures close the batch
// barrier from a failed unit, and whose small Store Buffer suspends
// SUs. Every event keeps its (cycle, seq) slot whatever its payload
// type, so these values change only with a deliberate change to the
// schedule. Across the three runs every task kind fires at least once.
func TestSchedulePinned(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 21)
	batch := smallOpts()
	batch.SeedStrategy = ReadInBatch
	faulted := batch
	faulted.Config.HitsBufferDepth = 16
	faulted.Faults = fault.Spec{Seed: 3, Horizon: 30000, EUFails: 4, SUFails: 2, EUStalls: 2}.Generate(16, 10)
	kinds := map[string]int{}
	for _, tc := range []struct {
		name       string
		o          Options
		fired, seq int64
	}{
		{"one-cycle", smallOpts(), 1598, 1598},
		{"read-in-batch", batch, 1553, 1553},
		{"faulted", faulted, 1822, 1822},
	} {
		sys, err := New(a, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunChecked(reads); err != nil {
			t.Fatal(err)
		}
		if f, q := sys.eng.Fired(), sys.eng.Seq(); f != tc.fired || q != tc.seq {
			t.Errorf("%s: quiesced at fired %d, seq %d; pinned %d, %d", tc.name, f, q, tc.fired, tc.seq)
		}
		// Replay one event at a time, naming each before it fires.
		sys, err = New(a, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		sys.Feed(reads)
		for {
			next := sys.eng.PendingEvents()
			if len(next) == 0 {
				break
			}
			kinds[next[0].Kind]++
			if err := sys.eng.RunBounded(-1, sys.eng.Fired()+1, nil, &sys.wdState); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range []string{"su-start", "su", "su-resume", "batch", "round-try", "round", "eu", "retry"} {
		if kinds[k] == 0 {
			t.Errorf("no %q task fired across the pinned runs (fired kinds: %v)", k, kinds)
		}
	}
}
