package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// calFireRec is one observed firing: the cycle it fired at and which
// logical event it was. Two engines executing the same schedule must
// produce identical sequences.
type calFireRec struct {
	at int64
	id int
}

// scheduler is the scheduling surface the differential driver uses:
// the production Engine (calendar queue) and heapEngine (the oracle).
type scheduler interface {
	Now() int64
	AtTask(cycle int64, t Task)
}

// heapEngine is the differential oracle: the engine's scheduling
// contract — a fresh seq per push, firing in (at, seq) order — over
// one plain binary heap holding every pending event.
type heapEngine struct {
	h        eventHeap
	now, seq int64
	fired    int64
}

func (e *heapEngine) Now() int64 { return e.now }

func (e *heapEngine) AtTask(cycle int64, t Task) {
	e.h.push(event{at: cycle, seq: e.seq, task: t})
	e.seq++
}

func (e *heapEngine) fireNext() {
	ev := e.h.pop()
	e.now = ev.at
	e.fired++
	ev.task.Fire()
}

func (e *heapEngine) Run() {
	for len(e.h) > 0 {
		e.fireNext()
	}
}

func (e *heapEngine) RunUntil(cycle int64) {
	for len(e.h) > 0 && e.h[0].at <= cycle {
		e.fireNext()
	}
	if e.now < cycle {
		e.now = cycle
	}
}

// calRecTask records its firing; the pooled no-alloc analogue of the
// closures the differential driver schedules.
type calRecTask struct {
	e   scheduler
	id  int
	log *[]calFireRec
}

func (t *calRecTask) Fire() {
	*t.log = append(*t.log, calFireRec{t.e.Now(), t.id})
}

func (t *calRecTask) TaskKind() string { return "calrec" }

// calOp is one step of a generated schedule program, executed from
// inside a fired event so pushes interleave with pops the way a live
// machine's do.
type calOp struct {
	delta int64 // cycles from now
	burst int   // >0: push this many events over three adjacent cycles
}

// calDriver replays a program against a scheduler: each Fire executes
// a few ops (schedules future recorder events, sometimes as same-cycle
// bursts that pile several events into one bucket), then reschedules
// itself.
type calDriver struct {
	e      scheduler
	ops    []calOp
	pos    int
	nextID int
	log    *[]calFireRec
}

func (d *calDriver) push(cycle int64) {
	d.e.AtTask(cycle, &calRecTask{e: d.e, id: d.nextID, log: d.log})
	d.nextID++
}

func (d *calDriver) Fire() {
	*d.log = append(*d.log, calFireRec{d.e.Now(), -1})
	now := d.e.Now()
	for step := 0; step < 3 && d.pos < len(d.ops); step++ {
		op := d.ops[d.pos]
		d.pos++
		if op.burst == 0 {
			d.push(now + op.delta)
			continue
		}
		for i := 0; i < op.burst; i++ {
			d.push(now + op.delta + int64(i%3))
		}
	}
	if d.pos < len(d.ops) {
		d.e.AtTask(d.e.Now()+1+d.ops[d.pos].delta%4, d)
	}
}

func (d *calDriver) TaskKind() string { return "caldriver" }

// calRun is one program's outcome: the firing log plus final position
// counters.
type calRun struct {
	log             []calFireRec
	now, seq, fired int64
}

// runCalEngine executes the program on a fresh Engine.
func runCalEngine(ops []calOp) calRun {
	var e Engine
	var r calRun
	e.AtTask(0, &calDriver{e: &e, ops: ops, log: &r.log})
	e.Run()
	r.now, r.seq, r.fired = e.Now(), e.Seq(), e.Fired()
	return r
}

// runCalOracle executes the program on the heap oracle.
func runCalOracle(ops []calOp) calRun {
	var e heapEngine
	var r calRun
	e.AtTask(0, &calDriver{e: &e, ops: ops, log: &r.log})
	e.Run()
	r.now, r.seq, r.fired = e.now, e.seq, e.fired
	return r
}

// checkCalRuns fails t on the first divergence between the engine and
// the oracle.
func checkCalRuns(t *testing.T, got, want calRun) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("calendar fired %d events, heap %d", len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("firing %d diverges: calendar %+v, heap %+v", i, got.log[i], want.log[i])
		}
	}
	if got.now != want.now || got.seq != want.seq || got.fired != want.fired {
		t.Fatalf("final counters diverge: calendar (now=%d seq=%d fired=%d), heap (now=%d seq=%d fired=%d)",
			got.now, got.seq, got.fired, want.now, want.seq, want.fired)
	}
}

func randCalOps(rng *rand.Rand, n int) []calOp {
	ops := make([]calOp, n)
	for i := range ops {
		var delta int64
		switch rng.Intn(10) {
		case 0: // far future: exercises the overflow heap + migration
			delta = int64(calWindow + rng.Intn(3*calWindow))
		case 1, 2: // same cycle
			delta = 0
		default: // short-range, the common machine pattern
			delta = int64(rng.Intn(40))
		}
		op := calOp{delta: delta}
		if rng.Intn(6) == 0 {
			op.burst = 1 + rng.Intn(5)
		}
		ops[i] = op
	}
	return ops
}

// TestCalendarVsHeapDifferential pins the engine's calendar queue
// against the heap oracle on randomized schedules that interleave
// pushes with pops, cross the overflow horizon, and pile bursts into
// shared buckets. The firing order must match event for event.
func TestCalendarVsHeapDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		ops := randCalOps(rand.New(rand.NewSource(int64(seed))), 60)
		t.Logf("seed %d", seed)
		checkCalRuns(t, runCalEngine(ops), runCalOracle(ops))
	}
}

// TestCalendarOverflowOrdering drives events far beyond the ring
// window in descending order and checks they still pop ascending —
// the overflow heap plus window-jump path.
func TestCalendarOverflowOrdering(t *testing.T) {
	var e Engine
	var log []calFireRec
	for i := 20; i >= 0; i-- {
		at := int64(i) * (calWindow / 2)
		e.AtTask(at, &calRecTask{e: &e, id: i, log: &log})
	}
	e.Run()
	if len(log) != 21 {
		t.Fatalf("fired %d events, want 21", len(log))
	}
	for i, rec := range log {
		if rec.id != i || rec.at != int64(i)*(calWindow/2) {
			t.Fatalf("firing %d = %+v, want id=%d at=%d", i, rec, i, int64(i)*(calWindow/2))
		}
	}
}

// TestCalendarPendingParity checks the engine's pending inventory —
// the source of watchdog summaries and checkpoint state encoding —
// lists exactly the oracle's pending events, in firing order, mid-run.
func TestCalendarPendingParity(t *testing.T) {
	ops := randCalOps(rand.New(rand.NewSource(7)), 40)
	var cal Engine
	var calLog []calFireRec
	cal.AtTask(0, &calDriver{e: &cal, ops: ops, log: &calLog})
	if err := cal.RunBounded(25, -1, nil, nil); err != nil {
		t.Fatal(err)
	}
	var heap heapEngine
	var heapLog []calFireRec
	heap.AtTask(0, &calDriver{e: &heap, ops: ops, log: &heapLog})
	heap.RunUntil(25)

	ce := cal.PendingEvents()
	he := make([]PendingEvent, len(heap.h))
	for i, ev := range heap.h {
		he[i] = PendingEvent{At: ev.at, Seq: ev.seq, Kind: eventKind(ev)}
	}
	sort.Slice(he, func(i, j int) bool {
		if he[i].At != he[j].At {
			return he[i].At < he[j].At
		}
		return he[i].Seq < he[j].Seq
	})
	if len(ce) == 0 {
		t.Fatal("test wants a non-empty pending set mid-run")
	}
	if len(ce) != len(he) {
		t.Fatalf("pending inventories differ: calendar %d, heap %d", len(ce), len(he))
	}
	for i := range ce {
		if ce[i] != he[i] {
			t.Fatalf("pending event %d: calendar %+v, heap %+v", i, ce[i], he[i])
		}
	}
	if cal.Pending() != len(he) {
		t.Fatalf("Pending() = %d, oracle holds %d", cal.Pending(), len(he))
	}
}

// TestCalendarPushPopZeroAlloc pins the calendar hot path: a warm
// engine scheduling pooled tasks, several to a bucket, must not
// allocate.
func TestCalendarPushPopZeroAlloc(t *testing.T) {
	var e Engine
	var n nopTask
	round := func() {
		for i := 0; i < 12; i++ {
			e.AtTask(e.Now()+int64(i%3), &n)
		}
		e.Run()
	}
	// Each round advances now by 2 cycles; warm all the way around the
	// ring so every slot's bucket has grown to peak occupancy before
	// measuring.
	for i := 0; i < 600; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("calendar push/pop allocates %v per round, want 0", allocs)
	}
}

// FuzzCalendarVsHeap feeds arbitrary schedule programs to the engine
// and the heap oracle and requires identical firing order and final
// counters.
func FuzzCalendarVsHeap(f *testing.F) {
	f.Add([]byte{3, 0, 130, 9, 200, 1, 7, 7})
	f.Add([]byte{0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		ops := make([]calOp, 0, len(data))
		for _, b := range data {
			op := calOp{delta: int64(b & 0x3f)}
			if b&0x40 != 0 {
				op.delta *= calWindow / 16 // push past the overflow horizon
			}
			if b&0x80 != 0 {
				op.burst = 1 + int(b&3)
			}
			ops = append(ops, op)
		}
		checkCalRuns(t, runCalEngine(ops), runCalOracle(ops))
	})
}
