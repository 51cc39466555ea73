package accel

import (
	"encoding/json"
	"fmt"
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/fault"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// testWorkloadF is testWorkload for fuzz targets (testing.F setup).
func testWorkloadF(f *testing.F, nReads int, seed int64) (*pipeline.Aligner, []seq.Seq) {
	f.Helper()
	ref := genome.Generate(genome.HumanLike(), 80000, seed)
	a := pipeline.New(ref.Seq, pipeline.DefaultOptions())
	reads := genome.Simulate(ref, nReads, genome.ShortReadConfig(seed+1))
	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return a, seqs
}

// mustJSON marshals a Report under either a *testing.T or *testing.F.
func mustJSON(tb testing.TB, r *Report) []byte {
	tb.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// finishFrom restores a system from a checkpoint and drives it to the
// final report through the incremental Step interface.
func finishFrom(t *testing.T, sys *System) *Report {
	t.Helper()
	for {
		done, err := sys.Step(5000)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			break
		}
	}
	rep, err := sys.DrainChecked()
	if err != nil {
		t.Fatalf("DrainChecked: %v", err)
	}
	return rep
}

// The tentpole contract: restoring a checkpoint taken at any Step
// boundary and running to completion is byte-identical to the
// uninterrupted run. Swept across all four allocator strategies ×
// {fault-free, seeded fault plan}; the sharded axis lives in the shard
// recovery tests.
func TestResumeByteIdentical(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 33)
	plan := fault.Spec{
		Seed: 9, Horizon: 20000,
		SUStalls: 3, SUFails: 1, EUStalls: 4, EUFails: 2,
	}.Generate(16, 10)
	for _, strat := range allStrategies {
		for _, faulted := range []bool{false, true} {
			strat, faulted := strat, faulted
			// The batched=false suffix names the per-hit dispatch path,
			// the only event loop since batched dispatch was removed; it
			// keeps the subtest names stable across that change.
			name := fmt.Sprintf("%s/faults=%v/batched=false", strat, faulted)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mkOpts := func() Options {
					o := smallOpts()
					o.AllocStrategy = strat
					if faulted {
						o.Faults = plan
					}
					return o
				}
				base, err := New(a, mkOpts())
				if err != nil {
					t.Fatal(err)
				}
				want := reportBytes(t, base.Run(reads))
				if live := base.arena.Live(); live != 0 {
					t.Errorf("arena leaked %d live hit IDs after the run", live)
				}

				// Stepped run, snapshotting at every slice boundary.
				sys, err := New(a, mkOpts())
				if err != nil {
					t.Fatal(err)
				}
				sys.Feed(reads)
				var cks []*ckpt.Checkpoint
				for {
					done, err := sys.Step(2500)
					if err != nil {
						t.Fatalf("Step: %v", err)
					}
					ck, err := sys.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					cks = append(cks, ck)
					if done {
						break
					}
				}
				rep, err := sys.DrainChecked()
				if err != nil {
					t.Fatal(err)
				}
				if got := reportBytes(t, rep); string(got) != string(want) {
					t.Fatal("stepped run diverges from uninterrupted run")
				}

				// Resume from the first, a middle, and the last
				// checkpoint; each must finish byte-identically.
				probe := []int{0, len(cks) / 2, len(cks) - 1}
				for _, i := range probe {
					r, err := Restore(a, mkOpts(), reads, cks[i])
					if err != nil {
						t.Fatalf("Restore(ck %d @cycle %d): %v", i, cks[i].Cycle, err)
					}
					if got := reportBytes(t, finishFrom(t, r)); string(got) != string(want) {
						t.Errorf("resume from checkpoint %d (cycle %d) diverges", i, cks[i].Cycle)
					}
				}
			})
		}
	}
}

// Checkpointing is non-perturbing at every synchronization point: for
// a small run, snapshot after every fired event, restore each, and
// the final Report never changes. This is the exhaustive version of
// TestResumeByteIdentical's three-probe sweep.
func TestResumeEverySyncPointByteIdentical(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 8, 77)
	mkOpts := func() Options {
		o := smallOpts()
		o.Faults = fault.Spec{
			Seed: 4, Horizon: 8000, SUStalls: 2, EUStalls: 2, EUFails: 1,
		}.Generate(16, 10)
		return o
	}
	base, err := New(a, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, base.Run(reads))

	sys, err := New(a, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	var cks []*ckpt.Checkpoint
	lastFired := int64(-1)
	for {
		done, err := sys.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if f := sys.eng.Fired(); f != lastFired {
			lastFired = f
			ck, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cks = append(cks, ck)
		}
		if done {
			break
		}
	}
	if len(cks) < 50 {
		t.Fatalf("run too short to be meaningful: %d sync points", len(cks))
	}
	for i, ck := range cks {
		r, err := Restore(a, mkOpts(), reads, ck)
		if err != nil {
			t.Fatalf("Restore(sync point %d, cycle %d, fired %d): %v", i, ck.Cycle, ck.Fired, err)
		}
		if got := reportBytes(t, finishFrom(t, r)); string(got) != string(want) {
			t.Fatalf("resume from sync point %d (cycle %d) diverges", i, ck.Cycle)
		}
	}
}

// Incremental feeding is exact: splitting the workload across
// mid-run Feed calls produces the same Report as feeding everything
// up front, and checkpoints taken between feeds replay the feed log
// correctly.
func TestIncrementalFeedByteIdentical(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 90, 55)
	mk := func() *System {
		sys, err := New(a, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := mk()
	want := reportBytes(t, base.Run(reads))

	sys := mk()
	sys.Feed(reads[:30])
	var mid *ckpt.Checkpoint
	for i := 0; ; i++ {
		done, err := sys.Step(400)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			sys.Feed(reads[30:70])
		case 5:
			sys.Feed(reads[70:])
			ck, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			mid = ck
		}
		if done && i > 5 {
			break
		}
	}
	rep, err := sys.DrainChecked()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); string(got) != string(want) {
		t.Fatal("incrementally fed run diverges from up-front feed")
	}
	if mid == nil {
		t.Fatal("run quiesced before the feed schedule completed")
	}
	if len(mid.FeedLog) != 3 {
		t.Fatalf("feed log = %v, want 3 records", mid.FeedLog)
	}
	r, err := Restore(a, smallOpts(), reads, mid)
	if err != nil {
		t.Fatalf("Restore across feed log: %v", err)
	}
	if got := reportBytes(t, finishFrom(t, r)); string(got) != string(want) {
		t.Fatal("resume across multi-feed log diverges")
	}
}

// Restore must refuse checkpoints that do not bind to the rebuilt
// system: wrong workload, wrong configuration, wrong fault plan,
// corrupted wire bytes.
func TestRestoreRejectsMismatches(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 20, 11)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	if _, err := sys.Step(2000); err != nil {
		t.Fatal(err)
	}
	ck, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(a, smallOpts(), reads[:len(reads)-1], ck); err == nil {
		t.Error("foreign workload accepted")
	}
	badOpts := smallOpts()
	badOpts.Config.HitsBufferDepth *= 2
	if _, err := Restore(a, badOpts, reads, ck); err == nil {
		t.Error("foreign configuration accepted")
	}
	planOpts := smallOpts()
	planOpts.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.SUStall, Cycle: 10, Unit: 0, Dur: 5}}}
	if _, err := Restore(a, planOpts, reads, ck); err == nil {
		t.Error("foreign fault plan accepted")
	}
	if _, err := ckpt.Decode(append(ck.Encode(), 0xFF)); err == nil {
		t.Error("corrupted wire bytes accepted")
	}
}

// A memo is keyed to its resume identity: a cache warmed for a fresh
// run must never serve a resumed system (and vice versa), while
// explicit re-keying opts back in — and stays byte-identical.
func TestMemoResumeCrossKeying(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 60, 99)
	memo := BuildMemo(a, nil, reads, 0)

	mkOpts := func() Options {
		o := smallOpts()
		o.Memo = memo
		return o
	}
	base, err := New(a, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	if base.memo == nil {
		t.Fatal("fresh run did not consume the memo")
	}
	want := reportBytes(t, base.Run(reads))

	sys, err := New(a, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	if _, err := sys.Step(3000); err != nil {
		t.Fatal(err)
	}
	ck, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Un-keyed memo: the resumed system must bypass it.
	r1, err := Restore(a, mkOpts(), reads, ck)
	if err != nil {
		t.Fatal(err)
	}
	if r1.memo != nil {
		t.Fatal("resumed run aliased a fresh run's memo")
	}
	if got := reportBytes(t, finishFrom(t, r1)); string(got) != string(want) {
		t.Fatal("live-path resume diverges")
	}

	// Explicitly re-keyed shallow copy: replay mode engages again.
	keyed := *memo
	o2 := smallOpts()
	o2.Memo = (&keyed).KeyedToResume(ck.Hash())
	r2, err := Restore(a, o2, reads, ck)
	if err != nil {
		t.Fatal(err)
	}
	if r2.memo == nil {
		t.Fatal("re-keyed memo not consumed")
	}
	if got := reportBytes(t, finishFrom(t, r2)); string(got) != string(want) {
		t.Fatal("re-keyed memo resume diverges")
	}
}

// FuzzSnapshotRoundTrip drives a small system under fuzzer-chosen
// step slicing and checkpoint position, then pins the two tentpole
// properties: snapshot → restore → snapshot yields identical bytes,
// and the restored run's Report equals the uninterrupted run's.
func FuzzSnapshotRoundTrip(f *testing.F) {
	a, reads := testWorkloadF(f, 24, 13)
	base, err := New(a, smallOpts())
	if err != nil {
		f.Fatal(err)
	}
	wantRep, err := base.RunChecked(reads)
	if err != nil {
		f.Fatal(err)
	}
	want := mustJSON(f, wantRep)

	f.Add(int64(500), uint8(3))
	f.Add(int64(1), uint8(0))
	f.Add(int64(100000), uint8(1))
	f.Fuzz(func(t *testing.T, budget int64, stopAfter uint8) {
		if budget < 1 {
			budget = 1
		}
		if budget > 1_000_000 {
			budget = 1_000_000
		}
		sys, err := New(a, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		sys.Feed(reads)
		slices := int(stopAfter)
		done := false
		for i := 0; i <= slices && !done; i++ {
			done, err = sys.Step(budget)
			if err != nil {
				t.Fatal(err)
			}
		}
		ck, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(a, smallOpts(), reads, ck)
		if err != nil {
			t.Fatalf("Restore(cycle %d, fired %d): %v", ck.Cycle, ck.Fired, err)
		}
		ck2, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(ck.Encode()) != string(ck2.Encode()) {
			t.Fatal("snapshot → restore → snapshot is not byte-identical")
		}
		for !done {
			done, err = restored.Step(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
		}
		rep, err := restored.DrainChecked()
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, rep); string(got) != string(want) {
			t.Fatal("restored run's Report diverges from uninterrupted run")
		}
	})
}
