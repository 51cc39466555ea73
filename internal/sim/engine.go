// Package sim provides the discrete-event, cycle-accurate simulation
// engine underneath the NvWa full-system model. It replaces the
// paper's Python execution-driven simulator: components schedule work
// at absolute cycle times, and utilization trackers record per-unit
// busy intervals for the Fig. 12 traces.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"nvwa/internal/ckpt"
)

// Engine is a deterministic discrete-event simulator over Tasks.
// Events scheduled for the same cycle fire in scheduling order.
type Engine struct {
	now    int64
	seq    int64
	fired  int64
	clamps int64

	// cal is the pending-event queue (see calendar.go); it pops in
	// (at, seq) order.
	cal calendarQueue

	// OnClamp, when set, is invoked with the clamped delta (how many
	// cycles in the past the event was requested) before the event is
	// rescheduled to now. The observability layer counts clamps here.
	OnClamp func(delta int64)
	// OnAdvance, when set, is invoked with the new current cycle each
	// time an event fires. The observability layer hangs its sampling
	// and the monotone-time invariant off this hook. It must not
	// schedule events.
	OnAdvance func(now int64)
}

// Task is a schedulable unit of work: the only thing the engine
// schedules. A task struct carries its own payload and is recycled by
// its owner after Fire, so steady-state event traffic performs no
// per-event allocation; payload-free tasks are pointer conversions of
// their owner. TaskKind names the task in diagnostics (watchdog heap
// dumps) and in the checkpoint state inventory.
type Task interface {
	Fire()
	TaskKind() string
}

// event is one queue entry: 32 bytes, so heap sifts and bucket appends
// move two words of payload besides the (at, seq) key.
type event struct {
	at   int64
	seq  int64
	task Task
}

// eventHeap is a binary min-heap over (at, seq), maintained with
// hand-rolled sift routines rather than container/heap: the interface
// methods box every event through interface{}, which allocated on each
// Push. Pop order is provably identical — (at, seq) is a total order
// because seq is unique per engine.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the task reference
	*h = s[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Now returns the current simulation cycle.
func (e *Engine) Now() int64 { return e.now }

// clampCycle applies the past-cycle scheduling policy: clamps are
// counted (Clamps) and reported through OnClamp, where the invariant
// checker flags each one — a past-cycle schedule is always a
// cost-model bug. Scheduling at the current cycle is normal and not a
// clamp.
func (e *Engine) clampCycle(cycle int64) int64 {
	if cycle < e.now {
		delta := e.now - cycle
		e.clamps++
		if e.OnClamp != nil {
			e.OnClamp(delta)
		}
		cycle = e.now
	}
	return cycle
}

// At schedules t.Fire to run at the given cycle. Scheduling in the
// past runs t at the current cycle, after already-queued same-cycle
// events; see clampCycle for the clamp policy. At performs no
// allocation beyond amortized queue growth.
func (e *Engine) At(cycle int64, t Task) {
	cycle = e.clampCycle(cycle)
	e.cal.push(event{at: cycle, seq: e.seq, task: t}, e.now)
	e.seq++
}

// Clamps returns how many past-cycle schedules were clamped to now.
func (e *Engine) Clamps() int64 { return e.clamps }

// fire advances time to the event and runs it.
func (e *Engine) fire(ev event) {
	e.now = ev.at
	e.fired++
	if e.OnAdvance != nil {
		e.OnAdvance(e.now)
	}
	ev.task.Fire()
}

// Run processes events until the queue is empty and returns the final
// cycle.
func (e *Engine) Run() int64 {
	for e.cal.len() > 0 {
		e.fire(e.cal.pop())
	}
	return e.now
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.cal.len() }

// Fired returns the total number of events fired so far. The fired
// count is the engine's replay coordinate: unlike the cycle, it
// strictly increases by one per event, so "run until exactly N events
// have fired" lands on a unique point in the schedule even when many
// events share a cycle. Checkpoints record it.
func (e *Engine) Fired() int64 { return e.fired }

// Seq returns the next sequence number the engine would assign.
// Together with Fired it pins the engine's exact position in the
// deterministic schedule.
func (e *Engine) Seq() int64 { return e.seq }

// PendingEvent describes one queued event without its payload.
type PendingEvent struct {
	At   int64
	Seq  int64
	Kind string
}

// PendingEvents returns descriptors for every queued event, sorted by
// firing order (at, seq). The heap itself is not disturbed.
func (e *Engine) PendingEvents() []PendingEvent {
	evs := e.cal.appendEvents(nil)
	out := make([]PendingEvent, len(evs))
	for i, ev := range evs {
		out[i] = PendingEvent{At: ev.at, Seq: ev.seq, Kind: ev.task.TaskKind()}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// PendingSummary renders a bounded, human-readable summary of the
// pending event heap: per-kind counts plus the first k events in
// firing order. Watchdog errors append it so a stuck-state report
// says what is stuck, not just when.
func (e *Engine) PendingSummary(k int) string {
	evs := e.PendingEvents()
	if len(evs) == 0 {
		return "heap empty"
	}
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for name := range counts {
		kinds = append(kinds, name)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "heap: %d pending [", len(evs))
	for i, name := range kinds {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, counts[name])
	}
	b.WriteString("], next:")
	if k > len(evs) {
		k = len(evs)
	}
	for _, ev := range evs[:k] {
		fmt.Fprintf(&b, " %s@%d", ev.Kind, ev.At)
	}
	if k < len(evs) {
		fmt.Fprintf(&b, " …(+%d more)", len(evs)-k)
	}
	return b.String()
}

// pendingNote formats the bounded heap summary as an error suffix.
func (e *Engine) pendingNote() string {
	return "; " + e.PendingSummary(8)
}

// EncodeState writes the engine's canonical state inventory: position
// counters plus a descriptor of every pending event. Task payloads
// point at live units and are not serializable — restore re-derives
// them by replay — but the descriptor set proves the replayed heap
// reached the identical shape.
func (e *Engine) EncodeState(enc *ckpt.Encoder) {
	enc.Section("sim.Engine")
	enc.PutI64(e.now)
	enc.PutI64(e.seq)
	enc.PutI64(e.fired)
	enc.PutI64(e.clamps)
	evs := e.PendingEvents()
	enc.PutInt(len(evs))
	for _, ev := range evs {
		enc.PutI64(ev.At)
		enc.PutI64(ev.Seq)
		enc.PutStr(ev.Kind)
	}
}
