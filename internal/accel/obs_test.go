package accel

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/obs"
)

// observedOpts returns smallOpts with a full observer (metrics + trace
// + strict invariants) attached.
func observedOpts() (Options, *obs.Observer) {
	o := smallOpts()
	ob := obs.New()
	o.Obs = ob
	return o, ob
}

// TestObservationDoesNotChangeReport is the PR's determinism contract:
// attaching the observability layer must not perturb the simulation in
// any way — the Report is identical with Obs set or nil.
func TestObservationDoesNotChangeReport(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 150, 11)

	plain, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	repPlain := plain.Run(reads)

	oo, ob := observedOpts()
	observed, err := New(a, oo)
	if err != nil {
		t.Fatal(err)
	}
	repObs := observed.Run(reads)

	if err := ob.Inv.Err(); err != nil {
		t.Fatalf("invariant violation during observed run: %v", err)
	}
	if ob.Inv.Checks() == 0 {
		t.Fatal("invariant checker never ran")
	}
	if !reflect.DeepEqual(repPlain, repObs) {
		t.Errorf("observation changed the Report:\nplain:    %+v\nobserved: %+v", repPlain, repObs)
	}

	// Serialise both to JSON to catch any field DeepEqual treats as
	// equal but serialisation would not (there should be none).
	b1, _ := json.Marshal(repPlain)
	b2, _ := json.Marshal(repObs)
	if !bytes.Equal(b1, b2) {
		t.Error("observed and plain Reports serialise differently")
	}
}

// TestObservedRunEmitsValidJSON checks the tentpole's export contract:
// the metrics snapshot and the Chrome trace of an observed run are
// valid JSON, the trace is non-trivial, and the exported utilization
// gauges agree with the Report's headline numbers exactly.
func TestObservedRunEmitsValidJSON(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 13)
	oo, ob := observedOpts()
	sys, err := New(a, oo)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)

	var mbuf bytes.Buffer
	if err := ob.Metrics.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbuf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	agree := func(name string, want float64) {
		t.Helper()
		got, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q missing from snapshot", name)
		}
		if want != 0 && math.Abs(got-want)/math.Abs(want) > 0.001 {
			t.Errorf("%s = %v, Report says %v (>0.1%% apart)", name, got, want)
		}
	}
	agree("su.utilization", rep.SUUtil)
	agree("eu.utilization", rep.EUUtil)
	agree("throughput.reads_per_sec", rep.ThroughputReadsPerSec)
	agree("sim.cycles", float64(rep.Cycles))
	if snap.Counters["su.reads"] != int64(rep.Reads) {
		t.Errorf("su.reads = %d, Report.Reads = %d", snap.Counters["su.reads"], rep.Reads)
	}
	if snap.Counters["coordinator.hits_pushed"] != int64(rep.TotalHits) {
		t.Errorf("hits_pushed = %d, TotalHits = %d",
			snap.Counters["coordinator.hits_pushed"], rep.TotalHits)
	}
	if len(snap.Series["coordinator.sb_occupancy"]) == 0 {
		t.Error("no SB occupancy series sampled")
	}

	var tbuf bytes.Buffer
	if err := ob.Trace.WriteJSON(&tbuf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbuf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(tf.TraceEvents) < rep.Reads {
		t.Fatalf("trace has %d events for %d reads — timeline too sparse", len(tf.TraceEvents), rep.Reads)
	}
	cats := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		cats[ev.Cat] = true
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("negative duration in trace event %+v", ev)
		}
	}
	for _, want := range []string{"su", "eu", "coordinator"} {
		if !cats[want] {
			t.Errorf("trace has no %q lane events", want)
		}
	}
}

// TestInvariantsHoldAcrossConfigurations runs the invariant checker
// (strict conservation, round soundness, buffer bounds, monotone time)
// over every seed x alloc strategy combination.
func TestInvariantsHoldAcrossConfigurations(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 80, 17)
	for _, seed := range []SeedStrategy{OneCycle, ReadInBatch} {
		for _, alloc := range []coordinator.Strategy{
			coordinator.Grouped, coordinator.Exclusive, coordinator.Shared, coordinator.FIFO,
		} {
			o := smallOpts()
			o.SeedStrategy = seed
			o.AllocStrategy = alloc
			ob := obs.NewInvariantsOnly()
			o.Obs = ob
			sys, err := New(a, o)
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.Run(reads)
			if err := ob.Inv.Err(); err != nil {
				t.Errorf("%v/%v: invariant violation: %v", seed, alloc, err)
			}
			l := ob.Inv.Ledger()
			if l.Pushed != int64(rep.TotalHits) {
				t.Errorf("%v/%v: ledger pushed %d, report says %d hits",
					seed, alloc, l.Pushed, rep.TotalHits)
			}
			if got := l.Assigned + l.Dropped; got != l.Pushed {
				t.Errorf("%v/%v: conservation after drain: assigned %d + dropped %d != pushed %d",
					seed, alloc, l.Assigned, l.Dropped, l.Pushed)
			}
		}
	}
}

// TestExclusiveEmptyClassDropsWithReason exercises the drain fix: an
// Exclusive pool whose smallest class has zero units can never place a
// short hit, so those hits must be dropped explicitly with a recorded
// reason — not stranded in the Processing Buffer (which would trip the
// CheckDrained invariant) and not silently vanished (which would trip
// conservation).
func TestExclusiveEmptyClassDropsWithReason(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 60, 19)
	o := smallOpts()
	o.AllocStrategy = coordinator.Exclusive
	o.Config.EUClasses = []core.EUClass{
		{PEs: 16, Count: 0}, // short hits' optimal class: empty
		{PEs: 32, Count: 2},
		{PEs: 64, Count: 2},
		{PEs: 128, Count: 1},
	}
	ob := obs.New()
	o.Obs = ob
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	if err := ob.Inv.Err(); err != nil {
		t.Fatalf("drain with an empty Exclusive class violated invariants: %v", err)
	}
	if rep.TotalHits == 0 {
		t.Fatal("workload produced no hits")
	}
	if ob.Inv.Ledger().Dropped == 0 {
		t.Fatal("no hits dropped — expected short hits to be unallocatable under Exclusive")
	}
	if ob.Metrics.Counter("alloc.dropped.unallocatable").Value() != ob.Inv.Ledger().Dropped {
		t.Errorf("dropped metric %d disagrees with ledger %d",
			ob.Metrics.Counter("alloc.dropped.unallocatable").Value(), ob.Inv.Ledger().Dropped)
	}
}

// TestSubThresholdTailIsDrained pins the end-of-input contract at the
// system level: a workload whose final hits never reach the switch
// threshold still completes with an empty Coordinator.
func TestSubThresholdTailIsDrained(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 23)
	o := smallOpts()
	// A deep buffer relative to the tiny workload: the threshold
	// (0.75*512=384 hits) is never reached, so only forced end-of-input
	// switches can move hits into the PB.
	o.Config.HitsBufferDepth = 512
	ob := obs.New()
	o.Obs = ob
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	if err := ob.Inv.Err(); err != nil {
		t.Fatalf("sub-threshold drain violated invariants: %v", err)
	}
	if rep.TotalHits == 0 {
		t.Fatal("workload produced no hits")
	}
	if ob.Inv.Ledger().Assigned != int64(rep.TotalHits) {
		t.Errorf("assigned %d of %d hits — tail stranded", ob.Inv.Ledger().Assigned, rep.TotalHits)
	}
	if ob.Metrics.Counter("coordinator.forced_switches").Value() == 0 {
		t.Error("no forced switch recorded — the tail cannot have drained via the threshold")
	}
	for i := range reads {
		if rep.Results[i].Hits == 0 && rep.TotalHits > 0 && rep.Results[i].Found {
			t.Errorf("read %d found a result but recorded no extended hits", i)
		}
	}
}

// TestStrictEngineAcrossStrategies proves no cost model produces
// negative latencies in a normal run: the engine clamps no past-cycle
// schedule.
func TestStrictEngineAcrossStrategies(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 50, 29)
	for _, build := range []func() Options{smallOpts, smallBaselineOpts} {
		o := build()
		sys, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		rep := sys.Run(reads)
		if rep.Reads != 50 {
			t.Fatalf("reads = %d", rep.Reads)
		}
		if n := sys.eng.Clamps(); n != 0 {
			t.Errorf("%d past-cycle schedules clamped", n)
		}
	}
}

// TestObservedRoundZeroAlloc pins a warm, observed allocation round
// (idle pool, window digests, AllocateIDs, the round hooks and
// CheckRound) to zero allocations. It steps a run to a sync point with
// hits in the Processing Buffer and idle EUs, then repeats that
// uncommitted round: with an invariants-only observer, and with
// metrics, whose series take every repeat at the same cycle and so
// coalesce instead of growing. It does not run in parallel:
// AllocsPerRun counts the whole process's allocations, so a parallel
// test allocating meanwhile would be charged to the round.
func TestObservedRoundZeroAlloc(t *testing.T) {
	a, reads := testWorkload(t, 150, 5)
	for _, tc := range []struct {
		name string
		ob   *obs.Observer
	}{
		{"invariants-only", obs.NewInvariantsOnly()},
		{"metrics", &obs.Observer{Metrics: obs.NewRegistry(), Inv: obs.NewInvariants()}},
	} {
		o := smallOpts()
		o.Obs = tc.ob
		s, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		s.Feed(reads)
		st := stepper{sys: s}
		for s.buffer.PBRemaining() == 0 || s.idleEUs == 0 || s.roundActive {
			done, err := st.step(1)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				t.Fatalf("%s: run quiesced before a round could be taken", tc.name)
			}
		}
		now := s.Now()
		var asg []coordinator.Assignment
		round := func() { // tryRound's steps up to the commit
			idle := s.idlePool()
			window := s.buffer.WindowIDs(core.AllocWindow)
			before := s.windowDigest(window)
			assigned, un := s.alloc.AllocateIDs(s.arena, window, idle)
			asg = asg[:0]
			for _, a := range assigned {
				asg = append(asg, coordinator.Assignment{Hit: s.arena.At(a.ID), Unit: a.Unit})
			}
			s.observeRound(now, window, before, idle, asg, len(un))
		}
		if round(); len(asg) == 0 { // warm
			t.Fatalf("%s: the round at cycle %d assigns nothing", tc.name, now)
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s: a warm observed round allocates %v times, want 0", tc.name, allocs)
		}
		if err := tc.ob.Inv.Err(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
