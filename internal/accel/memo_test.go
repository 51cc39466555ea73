package accel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/obs"
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
		replayRep := replay.Run(reads)
		if replay.memo == nil {
			t.Fatalf("%s: memo not bound", tc.name)
		}

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
	// The run must still complete correctly off the live seeder.
	rep := sys.Run(reads)
	if sys.memo != nil {
		t.Fatal("memo built for the FM-index front end was bound by a minimizer-seeded system")
	}
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

// memoCounters runs o over reads with a metrics registry attached and
// returns the Report and the run's memo counters (absent when never
// incremented).
func memoCounters(t *testing.T, a *pipeline.Aligner, o Options, reads []seq.Seq) (*Report, map[string]int64) {
	t.Helper()
	o.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	c := map[string]int64{}
	for _, name := range []string{"memo.hits", "memo.misses"} {
		if v, ok := o.Obs.Metrics.Snapshot().Counters[name]; ok {
			c[name] = v
		}
	}
	return rep, c
}

// TestMemoFallbackPaths checks the binding at Feed: a memo that does
// not hold exactly the fed reads — one over another read set of the
// same size, or one over a prefix of the run — is not replayed at all.
// The run fills every record live, so its Report equals the live
// run's, every dispatch counts as a memo miss and none as a hit.
func TestMemoFallbackPaths(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 41)
	_, others := testWorkload(t, 30, 43)
	want, live := memoCounters(t, a, smallOpts(), reads)
	if live["memo.misses"] == 0 || live["memo.hits"] != 0 {
		t.Fatalf("live run counted %v; want misses only", live)
	}
	for _, tc := range []struct {
		name string
		memo *Memo
	}{
		{"another 30-read set", BuildMemo(a, nil, others, 2)},
		{"the first 20 reads", BuildMemo(a, nil, reads[:20], 2)},
	} {
		o := smallOpts()
		o.Memo = tc.memo
		got, c := memoCounters(t, a, o, reads)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: Report diverges from the live run's", tc.name)
		}
		if _, ok := c["memo.hits"]; ok || c["memo.misses"] != live["memo.misses"] {
			t.Errorf("%s: counted %v; want %d misses and no hits", tc.name, c, live["memo.misses"])
		}
	}

	// A memo over the fed reads is bound, also when they come in
	// another slice: every dispatch is a hit.
	o := smallOpts()
	o.Memo = BuildMemo(a, nil, reads, 2)
	if got, c := memoCounters(t, a, o, append([]seq.Seq(nil), reads...)); !reflect.DeepEqual(want, got) ||
		c["memo.hits"] != live["memo.misses"] || c["memo.misses"] != 0 {
		t.Errorf("own memo: counted %v, Report equal %v; want %d hits, no misses", c, reflect.DeepEqual(want, got), live["memo.misses"])
	}
}

// TestMemoKeyedCopyLeavesOriginal keys a copy taken from a shared
// memo to a resume identity and checks that the original still serves
// fresh runs: KeyedToResume must not mutate its receiver.
func TestMemoKeyedCopyLeavesOriginal(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 47)
	memo := BuildMemo(a, nil, reads, 2)
	k := memo.KeyedToResume(7)
	if k == memo || k.resumeHash != 7 || memo.resumeHash != 0 {
		t.Fatalf("KeyedToResume: copy %p keyed %d, original %p keyed %d", k, k.resumeHash, memo, memo.resumeHash)
	}
	o := smallOpts()
	o.Memo = memo
	if _, c := memoCounters(t, a, o, reads); c["memo.hits"] == 0 {
		t.Fatalf("fresh run over the original memo counted %v; want memo hits", c)
	}
}

// TestShardViewsKeyedPerResume runs S = 2 over a resume-keyed copy of
// a memo, then over the original, which shares the copy's view cache:
// the second run must get views keyed to a fresh run and replay every
// dispatch from them.
func TestShardViewsKeyedPerResume(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 47)
	memo := BuildMemo(a, nil, reads, 2)
	run := func(m *Memo) map[string]int64 {
		o := smallOpts()
		o.Memo = m
		o.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
		ss, err := NewSharded(a, ShardedOptions{Options: o, Shards: 2, Policy: ShardContiguous})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.RunChecked(reads); err != nil {
			t.Fatal(err)
		}
		return o.Obs.Metrics.Snapshot().Counters
	}
	run(memo.KeyedToResume(7))
	if c := run(memo); c["memo.hits"] == 0 || c["memo.misses"] != 0 {
		t.Errorf("S = 2 over the original memo after a keyed copy counted memo.hits=%d memo.misses=%d; want hits only",
			c["memo.hits"], c["memo.misses"])
	}
}

// TestShardedForeignMemoDerivesNoViews attaches, to an S = 2 sharded
// run, a memo over another read set of the same size: the run derives
// no shard views from it and its Report equals the memo-less run's.
func TestShardedForeignMemoDerivesNoViews(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 53)
	_, others := testWorkload(t, 30, 59)
	foreign := BuildMemo(a, nil, others, 2)
	run := func(m *Memo) *Report {
		o := smallOpts()
		o.Memo = m
		ss, err := NewSharded(a, ShardedOptions{Options: o, Shards: 2, Policy: ShardContiguous})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ss.RunChecked(reads)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(nil)
	if got := run(foreign); !reflect.DeepEqual(want, got) {
		t.Error("sharded run over a foreign memo diverges from the memo-less run")
	}
	if n := len(foreign.shards.views); n != 0 {
		t.Errorf("a foreign memo derived %d shard-view sets", n)
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
