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
			before := digestHits(w)
			w[1].RefPos = 999
			v.CheckWindowUnchanged(1, before, digestHits(w))
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

// digestHits digests a window the way the allocation round does.
func digestHits(w []core.Hit) WindowDigest {
	var d WindowDigest
	for _, h := range w {
		d.Add(h)
	}
	return d
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
	v.CheckWindowUnchanged(1, WindowDigest{}, digestHits([]core.Hit{{}}))
	if v.Err() != nil || v.Checks() != 0 {
		t.Error("nil invariants recorded state")
	}
	if v.Ledger() != (Ledger{}) {
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

// TestEUHooksZeroAllocUntraced pins every per-event hook of a
// metrics+invariants observer to zero allocations once its handles are
// resolved, and checks that the cached handles still land in the
// catalog's names. Every sample shares one cycle, so the series
// coalesce and never grow.
func TestEUHooksZeroAllocUntraced(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Inv: NewInvariants()}
	hooks := []struct {
		name string
		fire func()
	}{
		{"SUSeed", func() { o.SUSeed(1, 7, 3, 10, 20) }},
		{"SUStall", func() { o.SUStall(1, 10, 20) }},
		{"EUExtend", func() {
			for class := 0; class < 3; class++ {
				o.EUExtend(class, class, 16<<class, 20, 10, 20)
			}
		}},
		{"EUClassIdle", func() {
			for class := 0; class < 3; class++ {
				o.EUClassIdle(10, class, 2)
			}
		}},
		{"EUTraceback", func() { o.EUTraceback(10, 40, 30, 30, true) }},
		{"BufferPush", func() { o.BufferPush(10, 3, 8) }},
		{"BufferSwitch", func() { o.BufferSwitch(10, 1, 4, true) }},
		{"BufferOccupancy", func() { o.BufferOccupancy(10, 2, 4) }},
		{"AllocRound", func() {
			o.AllocRound(10, 8, 3, 5, 4, 2)
			o.AllocRound(10, 8, 0, 8, 4, 2)
		}},
		{"TriggerEval", func() {
			o.TriggerEval(3, true)
			o.TriggerEval(0, false)
		}},
		{"Prefetch", func() { o.Prefetch(2, 32, 10, 20) }},
		{"MemoLookup", func() {
			o.MemoLookup(true)
			o.MemoLookup(false)
		}},
		{"EngineAdvance", func() { o.EngineAdvance(10) }},
	}
	for _, h := range hooks {
		h.fire() // warm: resolve the handles
	}
	for _, h := range hooks {
		if allocs := testing.AllocsPerRun(100, h.fire); allocs != 0 {
			t.Errorf("%s allocates %v per run untraced once warm, want 0", h.name, allocs)
		}
	}
	if err := o.Inv.Err(); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	for name, want := range map[string]int64{
		"eu.class2.tasks":             102,
		"su.reads":                    102,
		"su.stall_cycles":             1020,
		"coordinator.forced_switches": 102,
		"alloc.failed_rounds":         102,
		"memo.misses":                 102,
		"eu.traceback_spills":         102,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if pts := snap.Series["eu.class1.idle"]; len(pts) != 1 || pts[0].Value != 2 {
		t.Errorf("eu.class1.idle = %v, want one point of value 2", pts)
	}
	if h := snap.Histograms["alloc.window"]; h.Count != 204 || h.Counts[3] != 204 {
		t.Errorf("alloc.window = %+v, want 204 samples in the (4, 8] bucket", h)
	}
}

// TestMetricsCreatedOnFirstUse checks that the hooks' cached handles
// keep each metric's presence what it was when every hook looked its
// name up: a metric exists once its hook has fired, with a value a
// hook never reached (forced_switches below) left absent; and an
// invariants-only observer creates no metric at all.
func TestMetricsCreatedOnFirstUse(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Inv: NewInvariants()}
	snap := o.Metrics.Snapshot()
	if n := len(snap.Counters) + len(snap.Series) + len(snap.Histograms); n != 0 {
		t.Fatalf("a fresh observer holds %d metrics", n)
	}
	o.BufferSwitch(5, 1, 4, false)
	o.SUStall(1, 10, 10)
	snap = o.Metrics.Snapshot()
	for _, name := range []string{"coordinator.switches", "su.stalls"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("%s missing after its hook fired", name)
		}
	}
	for _, name := range []string{"coordinator.forced_switches", "su.stall_cycles", "su.reads", "alloc.rounds"} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("%s exists, but no hook reached it", name)
		}
	}
	if _, ok := snap.Histograms["eu.hit_len"]; ok {
		t.Error("eu.hit_len exists before any extension")
	}
	if len(snap.Series) != 2 {
		t.Errorf("series = %v, want the two buffer series", snap.Series)
	}

	inv := NewInvariantsOnly()
	inv.SUSeed(1, 0, 3, 0, 100)
	inv.EUExtend(2, 1, 32, 20, 50, 90)
	inv.EUClassIdle(90, 1, 2)
	inv.BufferPush(10, 5, 8)
	inv.AllocRound(60, 8, 5, 3, 6, 1)
	inv.TriggerEval(3, true)
	inv.MemoLookup(true)
	if inv.Metrics != nil {
		t.Fatal("an invariants-only observer grew a registry")
	}
	for _, c := range inv.counterHandles {
		if c != nil {
			t.Fatal("an invariants-only observer resolved a counter handle")
		}
	}
	if len(inv.classTasks)+len(inv.classIdle) != 0 {
		t.Error("an invariants-only observer cached per-class handles")
	}
	if inv.Inv.Checks() == 0 {
		t.Error("the invariants-only hooks checked nothing")
	}
}

// TestCheckRoundScratchResets checks that CheckRound's per-unit marks
// are cleared between rounds: a clean round after a faulty one is not
// flagged, and a unit ID above every earlier one is handled.
func TestCheckRoundScratchResets(t *testing.T) {
	v := NewInvariants()
	v.CheckRound(1, []int{1, 2}, []int{2, 2})
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "double-allocated") {
		t.Fatalf("double allocation not flagged: %v", err)
	}
	v.CheckRound(2, []int{1, 2}, []int{1, 2})
	v.CheckRound(3, []int{2}, []int{2})
	v.CheckRound(4, []int{40, 3}, []int{40})
	v.CheckRound(5, nil, nil)
	if len(v.violations) != 1 {
		t.Fatalf("clean rounds after the faulty one were flagged:\n%v", v.Err())
	}
	v.CheckRound(6, []int{3}, []int{40, 3})
	if len(v.violations) != 2 || !strings.Contains(v.violations[1], "unit 40 assigned but not offered idle") {
		t.Errorf("a unit offered only in an earlier round passed: %v", v.Err())
	}
	v.CheckRound(7, []int{0}, []int{-1, 100})
	if len(v.violations) != 4 {
		t.Errorf("out-of-range assignments: %d violations, want 4: %v", len(v.violations), v.Err())
	}
}
