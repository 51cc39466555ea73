package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nvwa/internal/core"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Gauge("g").Set(0.5)
	h := r.Histogram("h", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.Series("s").Sample(1, 2)
	r.Series("s").Sample(1, 3) // coalesces
	r.Series("s").Sample(7, 4)

	if got := r.Counter("a").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if got := r.Gauge("g").Value(); got != 0.5 {
		t.Errorf("gauge = %v", got)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if got := snap.Histograms["h"].Counts; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bucket counts = %v", got)
	}
	pts := snap.Series["s"]
	if len(pts) != 2 || pts[0] != (SeriesPoint{1, 3}) || pts[1] != (SeriesPoint{7, 4}) {
		t.Errorf("series = %v", pts)
	}
}

func TestRegistryJSONIsValidAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.count").Add(9)
		r.Counter("a.count").Add(1)
		r.Gauge("m.gauge").Set(3.25)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		r.Series("occ").Sample(10, 1)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical registries serialise to different bytes")
	}
	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if snap.Counters["z.count"] != 9 {
		t.Errorf("round-tripped counter = %d", snap.Counters["z.count"])
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	r.Series("x").Sample(1, 1)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Errorf("nil registry snapshot has %d counters", n)
	}
}

func TestTraceChromeFormat(t *testing.T) {
	tr := NewTrace()
	tr.Thread(PidSU, 3, "SU 3")
	tr.Thread(PidSU, 3, "SU 3") // idempotent
	tr.Complete(PidSU, 3, "su", "seed r0", 10, 25, map[string]any{"read": 0})
	tr.Instant(PidCoordinator, 0, "coordinator", "switch #1", 30, nil)
	tr.CounterSample(PidCoordinator, "hits buffer", 30, map[string]any{"SB": 5, "PB": 0})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	// 4 process_name metadata + 1 thread_name + 3 events.
	if len(f.TraceEvents) != 8 {
		t.Fatalf("trace has %d events, want 8", len(f.TraceEvents))
	}
	var seed *TraceEvent
	for i := range f.TraceEvents {
		if f.TraceEvents[i].Name == "seed r0" {
			seed = &f.TraceEvents[i]
		}
	}
	if seed == nil || seed.Ph != "X" || seed.TS != 10 || seed.Dur != 15 {
		t.Errorf("complete event wrong: %+v", seed)
	}
}

func TestNilTraceAndObserverAreNoOps(t *testing.T) {
	var tr *Trace
	tr.Thread(1, 1, "x")
	tr.Complete(1, 1, "c", "n", 0, 1, nil)
	tr.Instant(1, 1, "c", "n", 0, nil)
	tr.CounterSample(1, "n", 0, nil)
	if tr.Len() != 0 {
		t.Error("nil trace recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("nil trace JSON missing traceEvents")
	}

	var o *Observer
	o.SUSeed(0, 0, 0, 0, 1)
	o.SUStall(0, 0, 1)
	o.EUExtend(0, 0, 16, 5, 0, 1)
	o.BufferPush(0, 1, 4)
	o.BufferSwitch(0, 1, 1, false)
	o.BufferOccupancy(0, 0, 0)
	o.AllocRound(0, 1, 1, 0, 1, 9)
	o.EUClassIdle(0, 0, 1)
	o.Prefetch(0, 32, 0, 10)
	o.TriggerEval(1, true)
	o.EngineAdvance(5)
	o.EngineClamp(3)
	o.MemoLookup(true)
	o.HitsDropped(0, 1, "test")
}

func TestInvariantsDetectViolations(t *testing.T) {
	hit := func(i int) core.Hit { return core.Hit{ReadIdx: i, ReadLen: 100, ReadEnd: 10} }

	cases := []struct {
		name string
		run  func(v *Invariants)
		want string
	}{
		{"time backwards", func(v *Invariants) {
			v.CheckTime(10)
			v.CheckTime(9)
		}, "time ran backwards"},
		{"clamp", func(v *Invariants) { v.CheckClamp(7) }, "delta 7"},
		{"sb overflow", func(v *Invariants) { v.CheckBuffer(1, 9, 0, 0, 8) }, "SB occupancy"},
		{"pb overflow", func(v *Invariants) { v.CheckBuffer(1, 0, 9, 0, 8) }, "PB occupancy"},
		{"offset out of range", func(v *Invariants) { v.CheckBuffer(1, 0, 4, 5, 8) }, "offset"},
		{"double allocation", func(v *Invariants) {
			v.CheckRound(1, []int{1, 2}, []int{1, 1})
		}, "double-allocated"},
		{"assigning non-idle unit", func(v *Invariants) {
			v.CheckRound(1, []int{1}, []int{2})
		}, "not offered idle"},
		{"conservation", func(v *Invariants) {
			v.RecordPush(5)
			v.RecordAssigned(2)
			v.CheckConservation(1, 1, "round") // 2+1 != 5
		}, "conservation broken"},
		{"drain incomplete", func(v *Invariants) { v.CheckDrained(1, 3, 0, 0) }, "drain incomplete"},
		{"drop without reason", func(v *Invariants) { v.RecordDropped(1, "") }, "without a reason"},
		{"window mutated", func(v *Invariants) {
			w := []core.Hit{hit(0), hit(1)}
			before := v.SnapshotWindow(w)
			w[1].RefPos = 999
			v.CheckWindowUnchanged(1, before, w)
		}, "mutated"},
	}
	for _, tc := range cases {
		v := NewInvariants()
		tc.run(v)
		if err := v.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err() = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestInvariantsCleanRunHasNoViolations(t *testing.T) {
	v := NewInvariants()
	v.CheckTime(1)
	v.CheckTime(1)
	v.CheckTime(5)
	v.RecordPush(4)
	v.RecordAssigned(2)
	v.RecordDropped(1, "unallocatable")
	v.CheckConservation(5, 1, "round")
	v.CheckBuffer(5, 3, 4, 2, 8)
	v.CheckRound(5, []int{1, 2, 3}, []int{2, 3})
	v.CheckDrained(6, 0, 0, 0) // pending 0: 2 assigned + 1 dropped... pushed 4
	if err := v.Err(); err == nil {
		t.Fatal("expected the unbalanced drain ledger to be flagged")
	}
	// Balance the ledger and re-check a fresh checker end to end.
	v2 := NewInvariants()
	v2.RecordPush(3)
	v2.RecordAssigned(2)
	v2.RecordDropped(1, "unallocatable")
	v2.CheckDrained(9, 0, 0, 0)
	if err := v2.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if v2.Checks() == 0 {
		t.Error("checker claims it never ran")
	}
}

func TestInvariantsStrictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("strict mode did not panic")
		}
	}()
	v := &Invariants{Strict: true}
	v.CheckTime(5)
	v.CheckTime(1)
}

func TestNilInvariantsAreNoOps(t *testing.T) {
	var v *Invariants
	v.CheckTime(1)
	v.CheckClamp(1)
	v.CheckBuffer(1, 99, 99, 99, 1)
	v.CheckRound(1, nil, []int{1, 1})
	v.CheckConservation(1, 99, "x")
	v.CheckDrained(1, 1, 1, 1)
	v.RecordPush(1)
	v.RecordAssigned(1)
	v.RecordDropped(1, "")
	v.CheckWindowUnchanged(1, nil, []core.Hit{{}})
	if v.Err() != nil || v.Checks() != 0 {
		t.Error("nil invariants recorded state")
	}
	if v.Pushed()+v.Assigned()+v.Dropped() != 0 {
		t.Error("nil ledger nonzero")
	}
}

func TestObserverCatalog(t *testing.T) {
	o := New()
	o.SUSeed(1, 0, 3, 0, 100)
	o.SUStall(1, 100, 120)
	o.EUExtend(2, 1, 32, 20, 50, 90)
	o.BufferPush(10, 1, 8)
	o.BufferSwitch(20, 1, 6, true)
	o.BufferOccupancy(25, 0, 6)
	o.AllocRound(30, 6, 0, 6, 4, 15) // failed round
	o.EUClassIdle(30, 1, 4)
	o.Prefetch(0, 32, 0, 40)
	o.TriggerEval(10, true)
	o.TriggerEval(1, false)
	o.MemoLookup(true)
	o.MemoLookup(false)
	o.EngineClamp(2)

	m := o.Metrics
	checks := map[string]int64{
		"su.reads":                    1,
		"su.hits_produced":            3,
		"su.stall_cycles":             20,
		"eu.tasks":                    1,
		"eu.class1.tasks":             1,
		"coordinator.hits_pushed":     1,
		"coordinator.switches":        1,
		"coordinator.forced_switches": 1,
		"alloc.rounds":                1,
		"alloc.failed_rounds":         1,
		"alloc.write_backs":           6,
		"seedsched.prefetches":        1,
		"extsched.trigger_fired":      1,
		"extsched.trigger_suppressed": 1,
		"memo.hits":                   1,
		"memo.misses":                 1,
		"sim.clamped_schedules":       1,
	}
	for name, want := range checks {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if o.Trace.Len() == 0 {
		t.Error("no trace events recorded")
	}
	// The clamp must have been flagged as an invariant violation too.
	if o.Inv.Err() == nil {
		t.Error("engine clamp not flagged by the invariant checker")
	}
}

// TestEUHooksZeroAllocUntraced pins the per-extension and per-round EU
// hooks of a metrics-only observer to zero allocations once each
// class's handles are resolved, and checks that the cached handles
// still land in the catalog's names. The idle samples share one cycle,
// so they coalesce and the series never grows.
func TestEUHooksZeroAllocUntraced(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Inv: NewInvariants()}
	for class := 0; class < 3; class++ { // warm
		o.EUExtend(class, class, 16<<class, 20, 0, 10)
		o.EUClassIdle(10, class, 1)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for class := 0; class < 3; class++ {
			o.EUExtend(class, class, 16<<class, 20, 10, 20)
		}
	}); allocs != 0 {
		t.Fatalf("EUExtend allocates %v per run untraced once warm, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for class := 0; class < 3; class++ {
			o.EUClassIdle(10, class, 2)
		}
	}); allocs != 0 {
		t.Fatalf("EUClassIdle allocates %v per run once warm, want 0", allocs)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["eu.class2.tasks"]; got != 102 {
		t.Errorf("eu.class2.tasks = %d, want 102", got)
	}
	if pts := snap.Series["eu.class1.idle"]; len(pts) != 1 || pts[0].Value != 2 {
		t.Errorf("eu.class1.idle = %v, want one point of value 2", pts)
	}
}
