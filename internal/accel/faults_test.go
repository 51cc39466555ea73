package accel

import (
	"reflect"
	"strings"
	"testing"

	"nvwa/internal/fault"
	"nvwa/internal/obs"
	"nvwa/internal/sim"
)

// runOpts builds and runs one system, failing the test on construction
// errors, and returns the report plus the watchdog error.
func runOpts(t *testing.T, o Options, reads int, seed int64) (*Report, error) {
	t.Helper()
	a, rs := testWorkload(t, reads, seed)
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	return sys.RunChecked(rs)
}

// TestEmptyPlanByteIdentical pins the zero-overhead contract: a system
// built with an empty (but non-nil) fault plan and a watchdog that
// never trips produces a Report identical to the plain system's except
// for the FaultSummary pointer itself.
func TestEmptyPlanByteIdentical(t *testing.T) {
	t.Parallel()
	base, err := runOpts(t, smallOpts(), 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Faults = &fault.Plan{}
	o.Watchdog = &sim.Watchdog{MaxCycles: base.Cycles * 100}
	faulted, werr := runOpts(t, o, 150, 3)
	if werr != nil {
		t.Fatalf("watchdog tripped on empty plan: %v", werr)
	}
	if faulted.Faults == nil {
		t.Fatal("faulted run carries no FaultSummary")
	}
	if faulted.Faults.Planned != 0 || faulted.Faults.Injected != 0 {
		t.Fatalf("empty plan injected: %+v", faulted.Faults)
	}
	faulted.Faults = nil
	if !reflect.DeepEqual(base, faulted) {
		t.Fatal("empty-plan run diverged from plain run")
	}
}

// TestNilPlanReportHasNoSummary pins that the default path is exactly
// today's: no fault layer, no FaultSummary.
func TestNilPlanReportHasNoSummary(t *testing.T) {
	t.Parallel()
	rep, err := runOpts(t, smallOpts(), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Fatalf("nil-plan report carries FaultSummary %+v", rep.Faults)
	}
}

// invOpts attaches a strict-free invariant observer and returns it.
func invOpts(o Options) (Options, *obs.Observer) {
	ob := obs.NewInvariantsOnly()
	o.Obs = ob
	return o, ob
}

// TestSUFailureReseedsReads: with one SU failing early, every read must
// still be seeded by the survivors and the Results must match the
// fault-free run exactly (the redistribution policy loses nothing).
func TestSUFailureReseedsReads(t *testing.T) {
	t.Parallel()
	base, err := runOpts(t, smallOpts(), 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	o, ob := invOpts(smallOpts())
	o.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.SUFail, Cycle: 50, Unit: 2},
		{Kind: fault.SUFail, Cycle: 900, Unit: 5},
	}}
	rep, werr := runOpts(t, o, 120, 7)
	if werr != nil {
		t.Fatal(werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Faults.SUFailures != 2 {
		t.Fatalf("SUFailures = %d, want 2", rep.Faults.SUFailures)
	}
	if !reflect.DeepEqual(base.Results, rep.Results) {
		t.Fatal("SU failures changed alignment results despite reseeding")
	}
	if rep.Faults.ReadsAbandoned != 0 {
		t.Fatalf("abandoned %d reads with healthy survivors", rep.Faults.ReadsAbandoned)
	}
	if rep.Cycles < base.Cycles {
		t.Fatalf("degraded run faster than fault-free: %d < %d", rep.Cycles, base.Cycles)
	}
}

// TestEUFailureRetriesHits: hits in flight on failing EUs are
// re-dispatched; with retries succeeding, Results match fault-free.
func TestEUFailureRetriesHits(t *testing.T) {
	t.Parallel()
	base, err := runOpts(t, smallOpts(), 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	o, ob := invOpts(smallOpts())
	o.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.EUFail, Cycle: 100, Unit: 0},
		{Kind: fault.EUFail, Cycle: 100, Unit: 9}, // the lone 128-PE unit
		{Kind: fault.EUFail, Cycle: 2000, Unit: 4},
	}}
	rep, werr := runOpts(t, o, 120, 9)
	if werr != nil {
		t.Fatal(werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f.EUFailures != 3 {
		t.Fatalf("EUFailures = %d, want 3", f.EUFailures)
	}
	if f.Requeued != f.Retried+f.DeadLettered {
		t.Fatalf("retry ledger open: requeued %d != retried %d + deadLettered %d",
			f.Requeued, f.Retried, f.DeadLettered)
	}
	if f.DeadLettered == 0 && !reflect.DeepEqual(base.Results, rep.Results) {
		t.Fatal("EU failures changed results although nothing was dead-lettered")
	}
	if f.DeadLettered != len(f.DeadLetters) && len(f.DeadLetters) != fault.MaxDeadLetters {
		t.Fatalf("dead-letter ledger inconsistent: count %d, detail %d", f.DeadLettered, len(f.DeadLetters))
	}
}

// TestStallsOnlyDelay: transient SU/EU stalls and memory timeouts must
// not change results, only the makespan.
func TestStallsOnlyDelay(t *testing.T) {
	t.Parallel()
	base, err := runOpts(t, smallOpts(), 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	o, ob := invOpts(smallOpts())
	o.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.SUStall, Cycle: 10, Unit: 0, Dur: 5000},
		{Kind: fault.SUStall, Cycle: 10, Unit: 3, Dur: 2500},
		{Kind: fault.EUStall, Cycle: 200, Unit: 1, Dur: 4000},
		{Kind: fault.MemTimeout, Cycle: 1, Unit: -1, Dur: 3000},
	}}
	rep, werr := runOpts(t, o, 100, 11)
	if werr != nil {
		t.Fatal(werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Results, rep.Results) {
		t.Fatal("transient stalls changed alignment results")
	}
	f := rep.Faults
	if f.SUStallCycles == 0 {
		t.Fatal("SU stalls not absorbed")
	}
	if f.Requeued != 0 || f.DeadLettered != 0 || f.Shed != 0 {
		t.Fatalf("stall-only plan triggered degradation: %+v", f)
	}
	if rep.Cycles <= base.Cycles {
		t.Fatalf("injected stalls did not lengthen the run: %d <= %d", rep.Cycles, base.Cycles)
	}
}

// TestBufferPressureSheds: an open pressure window over a congested
// run sheds hits explicitly, and conservation still closes.
func TestBufferPressureSheds(t *testing.T) {
	t.Parallel()
	o, ob := invOpts(smallOpts())
	o.Config.HitsBufferDepth = 16 // keep the SB congested
	o.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.BufferPressure, Cycle: 1, Unit: -1, Dur: 1 << 40},
	}}
	rep, werr := runOpts(t, o, 120, 13)
	if werr != nil {
		t.Fatal(werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f.Shed == 0 {
		t.Fatal("permanent pressure window over a tiny buffer shed nothing")
	}
	if got := ob.Inv.Shed(); got != int64(f.Shed) {
		t.Fatalf("summary shed %d != ledger shed %d", f.Shed, got)
	}
}

// TestAllSUsFailedTerminates: killing every SU at cycle 0 must not
// hang or violate conservation — the input is abandoned and accounted.
func TestAllSUsFailedTerminates(t *testing.T) {
	t.Parallel()
	o, ob := invOpts(smallOpts())
	var evs []fault.Event
	for u := 0; u < o.Config.NumSUs; u++ {
		evs = append(evs, fault.Event{Kind: fault.SUFail, Cycle: 0, Unit: u})
	}
	o.Faults = &fault.Plan{Events: evs}
	o.Watchdog = &sim.Watchdog{MaxCycles: 10_000_000}
	rep, werr := runOpts(t, o, 50, 17)
	if werr != nil {
		t.Fatalf("watchdog tripped: %v", werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Faults.ReadsAbandoned == 0 {
		t.Fatal("all SUs dead but no reads accounted abandoned")
	}
}

// TestAllEUsFailedDeadLetters: killing every EU mid-run pulls the
// in-flight hits back into the retry loop, which — with zero alive
// units — must exhaust its budget and dead-letter rather than hang.
// Hits still waiting in the buffers are dropped by the drain escape;
// either way every hit is accounted and conservation closes.
func TestAllEUsFailedDeadLetters(t *testing.T) {
	t.Parallel()
	o, ob := invOpts(smallOpts())
	// A small buffer forces early allocation rounds; giant stalls pin
	// every dispatched extension in flight across the failure cycle,
	// so requeueing is guaranteed rather than timing-dependent.
	o.Config.HitsBufferDepth = 16
	var evs []fault.Event
	for u := 0; u < o.Config.TotalEUs(); u++ {
		evs = append(evs,
			fault.Event{Kind: fault.EUStall, Cycle: 1, Unit: u, Dur: 10_000_000},
			fault.Event{Kind: fault.EUFail, Cycle: 15_000, Unit: u},
		)
	}
	o.Faults = &fault.Plan{Events: evs}
	o.Watchdog = &sim.Watchdog{MaxCycles: 100_000_000}
	rep, werr := runOpts(t, o, 60, 19)
	if werr != nil {
		t.Fatalf("watchdog tripped: %v", werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f.EUFailures != o.Config.TotalEUs() {
		t.Fatalf("EUFailures = %d, want %d", f.EUFailures, o.Config.TotalEUs())
	}
	if f.Requeued == 0 || f.DeadLettered == 0 {
		t.Fatalf("expected mid-run requeues and dead letters with zero alive EUs: %+v", f)
	}
	if f.Retried != 0 {
		t.Fatalf("retries succeeded with zero alive EUs: %+v", f)
	}
	if f.Requeued != f.Retried+f.DeadLettered {
		t.Fatalf("retry ledger open: %+v", f)
	}
}

// TestBatchModeUnderFaults: the Read-in-Batch barrier must close even
// with failed SUs (they count as permanently idle).
func TestBatchModeUnderFaults(t *testing.T) {
	t.Parallel()
	o, ob := invOpts(smallBaselineOpts())
	o.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.SUFail, Cycle: 100, Unit: 0},
		{Kind: fault.SUFail, Cycle: 100, Unit: 7},
		{Kind: fault.EUFail, Cycle: 500, Unit: 2},
	}}
	o.Watchdog = &sim.Watchdog{MaxCycles: 100_000_000}
	rep, werr := runOpts(t, o, 100, 23)
	if werr != nil {
		t.Fatalf("batch barrier deadlocked: %v", werr)
	}
	if err := ob.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Faults.SUFailures != 2 {
		t.Fatalf("SUFailures = %d, want 2", rep.Faults.SUFailures)
	}
}

// TestWatchdogDiagnosesTightBudget: an absurdly small cycle budget
// must abort with a diagnosed error carried into the FaultSummary.
func TestWatchdogDiagnosesTightBudget(t *testing.T) {
	t.Parallel()
	o := smallOpts()
	o.Watchdog = &sim.Watchdog{MaxCycles: 10}
	rep, werr := runOpts(t, o, 50, 29)
	if werr == nil {
		t.Fatal("10-cycle budget not enforced")
	}
	if !strings.Contains(werr.Error(), "cycle budget") {
		t.Fatalf("undiagnostic error: %v", werr)
	}
	if rep.Faults == nil || rep.Faults.WatchdogErr == "" {
		t.Fatal("watchdog diagnosis missing from FaultSummary")
	}
}

// TestMemoMissesUnderFaultPlan is the replay-cache regression test: a
// memo warmed fault-free (plan hash 0) must NOT be consumed by a
// system configured with a fault plan, while the same memo re-keyed to
// the plan's hash is.
func TestMemoMissesUnderFaultPlan(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 40, 31)
	memo := BuildMemo(a, nil, reads, 2)
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.EUFail, Cycle: 500, Unit: 1}}}

	o := smallOpts()
	o.Memo = memo
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo == nil {
		t.Fatal("fault-free system rejected a fault-free memo")
	}

	o = smallOpts()
	o.Memo = memo
	o.Faults = plan
	sys, err = New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo != nil {
		t.Fatal("memo warmed fault-free was served to a faulted configuration")
	}

	o = smallOpts()
	o.Memo = keyedMemo(BuildMemo(a, nil, reads, 2), plan.Hash())
	o.Faults = plan
	sys, err = New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo == nil {
		t.Fatal("memo keyed to the plan hash was rejected")
	}

	// And the re-keyed memo must no longer serve the fault-free path.
	o = smallOpts()
	o.Memo = keyedMemo(BuildMemo(a, nil, reads, 2), plan.Hash())
	sys, err = New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo != nil {
		t.Fatal("plan-keyed memo served a fault-free configuration")
	}
}

// TestInvalidPlanRejected: New must fail fast on malformed plans.
func TestInvalidPlanRejected(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 5, 37)
	o := smallOpts()
	o.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.SUStall, Cycle: 10, Unit: -1, Dur: 5}}}
	if _, err := New(a, o); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestRetryBackoffClamped pins both clamps of the backoff curve: the
// old `64 << (attempt-1)` panicked on attempt < 1 (negative shift) and
// wrapped int64 for large attempts, where the wrapped negative was
// only saved by the <= 0 recheck. Every attempt count must now map to
// a sane, capped, positive delay.
func TestRetryBackoffClamped(t *testing.T) {
	t.Parallel()
	cases := []struct {
		attempt int
		want    int64
	}{
		{-3, 64},  // below the 1-based domain: base delay
		{0, 64},   // old code: shift by -1 => runtime panic
		{1, 64},   // first retry
		{2, 128},  // doubling
		{5, 1024}, // last in-cap step of the default budget
		{8, retryBackoffCap},
		{64, retryBackoffCap}, // old code: full wrap-around shift
		{1 << 20, retryBackoffCap},
	}
	for _, tc := range cases {
		if got := retryBackoff(tc.attempt); got != tc.want {
			t.Errorf("retryBackoff(%d) = %d, want %d", tc.attempt, got, tc.want)
		}
	}
	// Monotone and bounded over the whole practical range.
	prev := int64(0)
	for n := -1; n <= 128; n++ {
		d := retryBackoff(n)
		if d < prev || d <= 0 || d > retryBackoffCap {
			t.Fatalf("retryBackoff(%d) = %d breaks monotone/bounded (prev %d)", n, d, prev)
		}
		prev = d
	}
}

// keyedMemo re-keys m to a fault-plan hash, as NewSharded does for
// each shard's view.
func keyedMemo(m *Memo, planHash uint64) *Memo {
	m.planHash = planHash
	return m
}
