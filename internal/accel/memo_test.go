package accel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
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

// TestMemoReadCosts checks the memo's cost cache: it holds exactly
// EstimateReadCosts over the memoized workload, answers only for that
// aligner and those exact reads, and a balanced sharded run planned
// from it — serially or concurrently — is byte-identical to the run
// that probes the costs itself.
func TestMemoReadCosts(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 200, 23)
	memo := BuildMemo(a, nil, reads, 2)

	costs, ok := memo.readCosts(a, reads, 2)
	if !ok {
		t.Fatal("memo refused its own workload")
	}
	want := EstimateReadCosts(a, reads, 1)
	if !reflect.DeepEqual(costs, want) {
		t.Fatal("cached costs differ from EstimateReadCosts")
	}
	if again, _ := memo.readCosts(a, reads, 1); &again[0] != &costs[0] {
		t.Error("second readCosts call re-probed instead of reusing the cache")
	}

	other, _ := testWorkload(t, 1, 23)
	flipped := append([]seq.Seq(nil), reads...)
	flipped[7] = append(seq.Seq(nil), reads[7]...)
	flipped[7][0] ^= 1
	for _, tc := range []struct {
		name  string
		a     *pipeline.Aligner
		reads []seq.Seq
	}{
		{"another aligner", other, reads},
		{"one base flipped", a, flipped},
		{"a prefix", a, reads[:len(reads)-1]},
	} {
		if _, ok := memo.readCosts(tc.a, tc.reads, 1); ok {
			t.Errorf("%s: readCosts answered", tc.name)
		}
	}

	for _, s := range []int{2, 4} {
		// run reports failures with t.Error: it also runs off the test
		// goroutine.
		run := func(m *Memo) []byte {
			o := smallOpts()
			o.Memo = m
			sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: s, Policy: ShardBalanced})
			if err != nil {
				t.Error(err)
				return nil
			}
			rep, _, err := sys.RunDetailed(reads)
			if err != nil {
				t.Error(err)
				return nil
			}
			if len(rep.StealLog) == 0 {
				t.Errorf("S=%d: no steals planned; the comparison would not cover the StealLog", s)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Error(err)
			}
			return b
		}
		direct := run(nil)
		if got := run(memo); !bytes.Equal(got, direct) {
			t.Errorf("S=%d: memo-planned balanced run differs from the probing run", s)
		}
		if got := run(memo); !bytes.Equal(got, direct) {
			t.Errorf("S=%d: second run over the memo differs from the probing run", s)
		}

		// A fresh memo filled by two concurrent runs (-race).
		fresh := BuildMemo(a, nil, reads, 2)
		var got [2][]byte
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = run(fresh)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if !bytes.Equal(g, direct) {
				t.Errorf("S=%d: concurrent run %d over one memo differs from the probing run", s, i)
			}
		}
	}
}

// TestMemoWorkloadHash checks the memo's once-computed workload digest:
// it equals HashReads for the memo and for each balanced shard view,
// is used only for exactly the memo's reads, leaves checkpoints
// byte-identical to a memo-less run's, and is safe to fill from
// concurrent snapshots (-race).
func TestMemoWorkloadHash(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 29)
	memo := BuildMemo(a, nil, reads, 2)
	if got, want := memo.hashReads(reads), HashReads(reads); got != want {
		t.Fatalf("memo hash %#x, HashReads %#x", got, want)
	}
	parts, _ := PlanBalanced(EstimateReadCosts(a, reads, 1), 4)
	for i, v := range memo.ShardViews(ShardBalanced, 4, parts) {
		sub := make([]seq.Seq, len(parts[i]))
		for li, gi := range parts[i] {
			sub[li] = reads[gi]
		}
		if got, want := v.hashReads(sub), HashReads(sub); got != want {
			t.Errorf("view %d: hash %#x, HashReads %#x", i, got, want)
		}
	}

	flipped := append([]seq.Seq(nil), reads...)
	flipped[3] = append(seq.Seq(nil), reads[3]...)
	flipped[3][5] ^= 1
	_, more := testWorkload(t, 121, 29)
	for _, tc := range []struct {
		name  string
		reads []seq.Seq
	}{
		{"one base flipped", flipped},
		{"a prefix", reads[:len(reads)-1]},
		{"another read count", more},
	} {
		if memo.holds(tc.reads) {
			t.Errorf("%s: the memo claims to hold these reads", tc.name)
		}
		if got, want := memo.hashReads(tc.reads), HashReads(tc.reads); got != want {
			t.Errorf("%s: hash %#x, HashReads %#x", tc.name, got, want)
		}
	}

	// snapshots steps a System to two cycles and returns the encoded
	// checkpoint taken at each. It reports failures with t.Error: it
	// also runs off the test goroutine.
	snapshots := func(m *Memo) []*ckpt.Checkpoint {
		o := smallOpts()
		o.Memo = m
		s, err := New(a, o)
		if err != nil {
			t.Error(err)
			return nil
		}
		s.Feed(reads)
		var cks []*ckpt.Checkpoint
		for _, at := range []int64{3000, 9000} {
			if done, err := s.StepUntil(at); err != nil || done {
				t.Errorf("StepUntil(%d): done %v, err %v; want a mid-run sync point", at, done, err)
				return nil
			}
			ck, err := s.Snapshot()
			if err != nil {
				t.Error(err)
				return nil
			}
			cks = append(cks, ck)
		}
		return cks
	}
	direct := snapshots(nil)
	replayed := snapshots(memo)
	for i := range direct {
		if !bytes.Equal(direct[i].Encode(), replayed[i].Encode()) {
			t.Errorf("checkpoint %d over the memo differs from the memo-less one", i)
		}
	}
	o := smallOpts()
	o.Memo = memo
	if _, err := Restore(a, o, reads, replayed[1]); err != nil {
		t.Errorf("Restore from the memo run's checkpoint: %v", err)
	}

	fresh := BuildMemo(a, nil, reads, 2)
	var got [2][]*ckpt.Checkpoint
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = snapshots(fresh)
		}(i)
	}
	wg.Wait()
	for i, cks := range got {
		for k := range cks {
			if !bytes.Equal(cks[k].Encode(), direct[k].Encode()) {
				t.Errorf("concurrent run %d: checkpoint %d differs", i, k)
			}
		}
	}
}
