package accel

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
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

// stepper slices a run into StepUntil calls budget cycles apart. Its
// horizon is monotone rather than now+budget: a slice that fires no
// event does not advance the clock, so the horizon is what lets
// repeated small slices make progress across an event gap.
type stepper struct {
	sys     *System
	horizon int64
}

func (st *stepper) step(budget int64) (bool, error) {
	if now := st.sys.Now(); st.horizon < now {
		st.horizon = now
	}
	st.horizon += budget
	return st.sys.StepUntil(st.horizon)
}

// finishFrom drives a (restored) system to the final report in
// StepUntil slices.
func finishFrom(t *testing.T, sys *System) *Report {
	t.Helper()
	st := stepper{sys: sys}
	for {
		done, err := st.step(5000)
		if err != nil {
			t.Fatalf("StepUntil: %v", err)
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

// The tentpole contract: restoring a checkpoint taken at any StepUntil
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
				st := stepper{sys: sys}
				var cks []*ckpt.Checkpoint
				for {
					done, err := st.step(2500)
					if err != nil {
						t.Fatalf("StepUntil: %v", err)
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
	st := stepper{sys: sys}
	var cks []*ckpt.Checkpoint
	lastFired := int64(-1)
	for {
		done, err := st.step(1)
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
	if _, err := sys.StepUntil(2000); err != nil {
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

// A checksum-valid checkpoint whose engine position is impossible
// must be refused with an error, never a panic. Each mutated
// checkpoint goes through Encode and Decode, so it passes the FNV gates
// exactly as a re-signed file would.
func TestRestoreRejectsHostilePosition(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 20, 11)
	base, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	base.Run(reads)
	last := base.eng.Fired() // the run's last event
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	if _, err := sys.StepUntil(2000); err != nil {
		t.Fatal(err)
	}
	ck, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(mut func(c *ckpt.Checkpoint)) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
				t.Errorf("Restore panicked: %v", p)
			}
		}()
		c := *ck
		mut(&c)
		dec, err := ckpt.Decode(c.Encode())
		if err != nil {
			t.Fatalf("re-signed checkpoint rejected by Decode: %v", err)
		}
		_, err = Restore(a, smallOpts(), reads, dec)
		return err
	}
	if err := restore(func(*ckpt.Checkpoint) {}); err != nil {
		t.Fatalf("re-signed valid checkpoint refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(c *ckpt.Checkpoint)
	}{
		{"negative fired", func(c *ckpt.Checkpoint) { c.Fired = -1 }},
		{"fired past the last event", func(c *ckpt.Checkpoint) { c.Fired = last + 1 }},
		{"fired at max", func(c *ckpt.Checkpoint) { c.Fired = math.MaxInt64 }},
		{"cycle changed", func(c *ckpt.Checkpoint) { c.Cycle++ }},
		{"cycle negative", func(c *ckpt.Checkpoint) { c.Cycle = -1 }},
		{"seq changed", func(c *ckpt.Checkpoint) { c.Seq++ }},
		{"seq behind fired", func(c *ckpt.Checkpoint) { c.Seq = c.Fired - 1 }},
	} {
		if err := restore(tc.mut); err == nil {
			t.Errorf("%s: checkpoint accepted", tc.name)
		}
	}
}

// A System is fed once: a second Feed panics naming the misuse, and
// a Snapshot before the first Feed is an error rather than a
// checkpoint of no workload.
func TestFeedOnceAndSnapshotAfterFeed(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 10, 11)
	for _, strat := range []SeedStrategy{OneCycle, ReadInBatch} {
		o := smallOpts()
		o.SeedStrategy = strat
		sys, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if ck, err := sys.Snapshot(); err == nil {
			t.Errorf("%v: Snapshot before Feed returned %+v, want an error", strat, ck)
		}
		sys.Feed(reads)
		if _, err := sys.Snapshot(); err != nil {
			t.Errorf("%v: Snapshot after Feed: %v", strat, err)
		}
		func() {
			defer func() {
				p := recover()
				if msg, _ := p.(string); !strings.Contains(msg, "Feed called twice") {
					t.Errorf("%v: second Feed: recovered %v, want a panic naming the misuse", strat, p)
				}
			}()
			sys.Feed(reads)
		}()
	}
	// An empty read set is still a Feed.
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(nil)
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after an empty Feed: %v", err)
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
	want := reportBytes(t, base.Run(reads))
	if base.memo == nil {
		t.Fatal("fresh run did not bind the memo")
	}

	sys, err := New(a, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	if _, err := sys.StepUntil(3000); err != nil {
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

	// Explicitly re-keyed copy: replay mode engages again.
	o2 := smallOpts()
	o2.Memo = memo.KeyedToResume(ck.Hash())
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
		st := stepper{sys: sys}
		slices := int(stopAfter)
		done := false
		for i := 0; i <= slices && !done; i++ {
			done, err = st.step(budget)
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
		rst := stepper{sys: restored}
		for !done {
			done, err = rst.step(1_000_000)
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
