package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// fn adapts a closure to Task for these tests; production code
// schedules typed tasks only.
type fn func()

func (f fn) Fire()          { f() }
func (fn) TaskKind() string { return "fn" }

// drain runs e until its queue is empty, unbounded, and returns the
// final cycle.
func drain(e *Engine) int64 {
	e.RunBounded(-1, -1, nil, nil)
	return e.Now()
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(5, fn(func() { got = append(got, 5) }))
	e.At(1, fn(func() { got = append(got, 1) }))
	e.At(3, fn(func() { got = append(got, 3) }))
	e.At(3, fn(func() { got = append(got, 30) })) // same cycle: scheduling order
	end := drain(&e)
	if end != 5 {
		t.Errorf("final cycle = %d", end)
	}
	want := []int{1, 3, 30, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	var e Engine
	var fired []int64
	e.At(10, fn(func() {
		e.At(e.Now()+5, fn(func() { fired = append(fired, e.Now()) }))
		e.At(e.Now(), fn(func() { fired = append(fired, e.Now()) }))
	}))
	drain(&e)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	var e Engine
	ran := false
	e.At(10, fn(func() {
		e.At(3, fn(func() { // in the past: runs now
			if e.Now() != 10 {
				t.Errorf("past event ran at %d", e.Now())
			}
			ran = true
		}))
	}))
	drain(&e)
	if !ran {
		t.Error("past-scheduled event never ran")
	}
}

// TestEngineRunUntil runs to a cycle limit: events at or before it
// fire, later ones stay queued.
func TestEngineRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := int64(1); i <= 10; i++ {
		e.At(i*10, fn(func() { count++ }))
	}
	if err := e.RunBounded(50, -1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
	if e.Now() != 50 {
		t.Errorf("now = %d, want 50", e.Now())
	}
	drain(&e)
	if count != 10 {
		t.Errorf("count = %d after Run", count)
	}
}

func TestEngineRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e Engine
	var fired []int64
	times := make([]int64, 200)
	for i := range times {
		times[i] = int64(rng.Intn(1000))
		at := times[i]
		e.At(at, fn(func() { fired = append(fired, at) }))
	}
	drain(&e)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i := range times {
		if fired[i] != times[i] {
			t.Fatalf("event %d fired at %d, want %d", i, fired[i], times[i])
		}
	}
}

// countTask is a reusable Task that reschedules itself, modeling the
// accelerator's pooled completion events.
type countTask struct {
	e     *Engine
	fired []int64
	left  int
	step  int64
}

func (c *countTask) TaskKind() string { return "count" }

func (c *countTask) Fire() {
	c.fired = append(c.fired, c.e.Now())
	if c.left > 0 {
		c.left--
		c.e.At(c.e.Now()+c.step, c)
	}
}

func TestEngineTaskScheduling(t *testing.T) {
	var e Engine
	c := &countTask{e: &e, left: 3, step: 7}
	order := []string{}
	e.At(7, fn(func() { order = append(order, "fn@7") }))
	e.At(0, c)
	e.At(0, fn(func() { order = append(order, "fn@0") }))
	end := drain(&e)
	if end != 21 {
		t.Errorf("final cycle = %d, want 21", end)
	}
	want := []int64{0, 7, 14, 21}
	if len(c.fired) != len(want) {
		t.Fatalf("task fired at %v, want %v", c.fired, want)
	}
	for i := range want {
		if c.fired[i] != want[i] {
			t.Fatalf("task fired at %v, want %v", c.fired, want)
		}
	}
	// Task kinds interleave in (at, seq) order: the task's
	// reschedule to cycle 7 has a higher seq than fn@7, so fn@7 fires
	// first.
	if order[0] != "fn@0" || order[1] != "fn@7" {
		t.Errorf("fn order = %v", order)
	}
}

func TestEngineTaskClampAndStrict(t *testing.T) {
	var e Engine
	c := &countTask{e: &e}
	e.At(10, fn(func() { e.At(4, c) })) // past: clamps to 10
	drain(&e)
	if e.Clamps() != 1 {
		t.Errorf("Clamps() = %d, want 1", e.Clamps())
	}
	if len(c.fired) != 1 || c.fired[0] != 10 {
		t.Errorf("clamped task fired at %v, want [10]", c.fired)
	}
}

// TestEventHeapMatchesSortOracle drives the hand-rolled sift heap with
// interleaved pushes and pops against a sort-based oracle: pop order
// must be exactly (at, seq)-sorted order, which is what container/heap
// delivered before the typed rewrite.
func TestEventHeapMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var h eventHeap
	var oracle []event
	seq := int64(0)
	for iter := 0; iter < 5000; iter++ {
		if len(oracle) == 0 || rng.Intn(3) != 0 {
			ev := event{at: int64(rng.Intn(50)), seq: seq}
			seq++
			h.push(ev)
			oracle = append(oracle, ev)
		} else {
			best := 0
			for i, ev := range oracle {
				if ev.at < oracle[best].at || (ev.at == oracle[best].at && ev.seq < oracle[best].seq) {
					best = i
				}
			}
			want := oracle[best]
			oracle = append(oracle[:best], oracle[best+1:]...)
			got := h.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("iter %d: pop = (at=%d seq=%d), oracle says (at=%d seq=%d)",
					iter, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(h) != len(oracle) {
			t.Fatalf("iter %d: heap len %d, oracle len %d", iter, len(h), len(oracle))
		}
	}
	for len(oracle) > 0 {
		best := 0
		for i, ev := range oracle {
			if ev.at < oracle[best].at || (ev.at == oracle[best].at && ev.seq < oracle[best].seq) {
				best = i
			}
		}
		want := oracle[best]
		oracle = append(oracle[:best], oracle[best+1:]...)
		got := h.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: pop = (at=%d seq=%d), want (at=%d seq=%d)", got.at, got.seq, want.at, want.seq)
		}
	}
}

// TestEngineSteadyStateZeroAlloc asserts the typed-heap contract: with
// pooled tasks, scheduling and firing events allocates nothing once
// the heap's backing array is warm. container/heap boxed every event
// through interface{} on Push, failing this.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	var e Engine
	tasks := make([]*countTask, 8)
	for i := range tasks {
		tasks[i] = &countTask{e: &e}
	}
	warm := func() {
		for i, c := range tasks {
			e.At(e.Now()+int64(i%3), c)
		}
		drain(&e)
	}
	// Each round advances now by 2 cycles, so the measured rounds keep
	// landing on fresh calendar ring slots: warm all the way around the
	// ring once so every slot has grown to this workload's peak bucket
	// occupancy before measuring.
	for i := 0; i < 600; i++ {
		warm()
	}
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 8 { // countTask.fired appends; the engine itself must add none
		t.Fatalf("steady-state scheduling allocates %v per round", allocs)
	}
	// Tighter check with a payload-free task.
	for i := range tasks {
		tasks[i].fired = nil
	}
	var n nopTask
	warmNop := func() {
		for i := 0; i < 16; i++ {
			e.At(e.Now()+int64(i%3), &n)
		}
		drain(&e)
	}
	for i := 0; i < 600; i++ { // wrap the ring (see warm above)
		warmNop()
	}
	if allocs := testing.AllocsPerRun(200, warmNop); allocs != 0 {
		t.Fatalf("steady-state task scheduling allocates %v per round, want 0", allocs)
	}
}

type nopTask struct{}

func (nopTask) Fire()            {}
func (nopTask) TaskKind() string { return "nop" }

func TestBusyTrackerBasics(t *testing.T) {
	var b BusyTracker
	b.SetBusy(10)
	b.SetBusy(12) // no-op
	b.SetIdle(20)
	b.SetIdle(25) // no-op
	b.SetBusy(30)
	b.SetIdle(40)
	if got := b.Utilization(0, 100); got != 0.2 {
		t.Errorf("utilization = %v, want 0.2", got)
	}
	if got := b.Utilization(10, 20); got != 1.0 {
		t.Errorf("utilization of busy window = %v", got)
	}
	if got := b.Utilization(20, 30); got != 0 {
		t.Errorf("utilization of idle window = %v", got)
	}
	if len(b.intervals) != 2 {
		t.Errorf("intervals = %v", b.intervals)
	}
}

func TestBusyTrackerOpenInterval(t *testing.T) {
	var b BusyTracker
	b.SetBusy(50)
	if !b.Busy() {
		t.Error("should be busy")
	}
	if got := b.Utilization(50, 60); got != 1.0 {
		t.Errorf("open busy window utilization = %v", got)
	}
	if got := b.Utilization(0, 100); got != 0.5 {
		t.Errorf("open utilization = %v", got)
	}
}

func TestBusyTrackerSeries(t *testing.T) {
	var b BusyTracker
	b.SetBusy(0)
	b.SetIdle(50)
	s := GroupSeries([]*BusyTracker{&b}, 100, 4)
	want := []float64{1, 1, 0, 0}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
	if got := GroupSeries([]*BusyTracker{&b}, 0, 3); len(got) != 3 {
		t.Error("zero-end series must still have n entries")
	}
}

func TestGroupUtilization(t *testing.T) {
	a, b := &BusyTracker{}, &BusyTracker{}
	a.SetBusy(0)
	a.SetIdle(100)
	b.SetBusy(0)
	b.SetIdle(50)
	if got := GroupUtilization([]*BusyTracker{a, b}, 0, 100); got != 0.75 {
		t.Errorf("group utilization = %v, want 0.75", got)
	}
	if got := GroupUtilization(nil, 0, 100); got != 0 {
		t.Errorf("empty group = %v", got)
	}
	s := GroupSeries([]*BusyTracker{a, b}, 100, 2)
	if s[0] != 1.0 || s[1] != 0.5 {
		t.Errorf("group series = %v", s)
	}
}

func TestUtilizationDegenerateWindow(t *testing.T) {
	var b BusyTracker
	b.SetBusy(0)
	b.SetIdle(10)
	if got := b.Utilization(5, 5); got != 0 {
		t.Errorf("degenerate window utilization = %v", got)
	}
}

func TestEngineClampCounterAndHooks(t *testing.T) {
	var e Engine
	var clampDeltas []int64
	var advances []int64
	e.OnClamp = func(d int64) { clampDeltas = append(clampDeltas, d) }
	e.OnAdvance = func(now int64) { advances = append(advances, now) }
	e.At(10, fn(func() {
		e.At(3, fn(func() {}))  // 7 cycles in the past
		e.At(10, fn(func() {})) // current cycle: NOT a clamp
	}))
	drain(&e)
	if e.Clamps() != 1 {
		t.Errorf("Clamps() = %d, want 1", e.Clamps())
	}
	if len(clampDeltas) != 1 || clampDeltas[0] != 7 {
		t.Errorf("OnClamp deltas = %v, want [7]", clampDeltas)
	}
	// Three events fired (the root and both children), each advancing.
	if len(advances) != 3 || advances[0] != 10 || advances[1] != 10 || advances[2] != 10 {
		t.Errorf("OnAdvance = %v, want [10 10 10]", advances)
	}
}

func TestEngineRunUntilFiresOnAdvance(t *testing.T) {
	var e Engine
	var advances []int64
	e.OnAdvance = func(now int64) { advances = append(advances, now) }
	e.At(5, fn(func() {}))
	e.At(50, fn(func() {}))
	if err := e.RunBounded(20, -1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(advances) != 1 || advances[0] != 5 {
		t.Errorf("OnAdvance during a cycle-limited run = %v, want [5]", advances)
	}
}
