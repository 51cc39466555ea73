package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event process IDs, one per simulated component, so a
// Perfetto / chrome://tracing timeline groups lanes the way Fig. 12
// groups its curves: an SU pool track, an EU pool track, and the
// Coordinator / scheduler control plane.
const (
	PidSU          = 1 // seeding units, one thread lane per SU
	PidEU          = 2 // extension units, one thread lane per EU
	PidCoordinator = 3 // hits buffer + allocation rounds
	PidScheduler   = 4 // seeding scheduler (prefetch) + allocate trigger
)

// TraceEvent is one Chrome trace_event record. Ph "X" is a complete
// event (ts+dur), "i" an instant, "C" a counter sample, "M" metadata.
// Timestamps are microseconds in the Chrome format; the simulation
// maps 1 cycle = 1 µs, so timeline distances read directly as cycles.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace collects trace events for one run. Events append in simulation
// order, which is deterministic, so traces of identical runs are
// byte-identical. Not safe for concurrent use (one Trace per event
// loop).
type Trace struct {
	events []TraceEvent
	named  map[[2]int]bool // (pid,tid) pairs already given a thread_name
}

// NewTrace returns an empty trace with the component process names
// pre-registered.
func NewTrace() *Trace {
	t := &Trace{named: map[[2]int]bool{}}
	for _, p := range []struct {
		pid  int
		name string
	}{
		{PidSU, "SU pool"},
		{PidEU, "EU pool"},
		{PidCoordinator, "Coordinator"},
		{PidScheduler, "Scheduler"},
	} {
		t.events = append(t.events, TraceEvent{
			Name: "process_name", Ph: "M", Pid: p.pid,
			Args: map[string]any{"name": p.name},
		})
	}
	return t
}

// Thread registers a human-readable lane name for (pid, tid) once,
// e.g. "SU 17" or "EU 3 (32 PEs)".
func (t *Trace) Thread(pid, tid int, name string) {
	if t == nil || t.named[[2]int{pid, tid}] {
		return
	}
	t.named[[2]int{pid, tid}] = true
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Complete records a complete ("X") event spanning [start, end) cycles.
func (t *Trace) Complete(pid, tid int, cat, name string, start, end int64, args map[string]any) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", TS: start, Dur: dur,
		Pid: pid, Tid: tid, Args: args,
	})
}

// Instant records an instant ("i") event at the given cycle.
func (t *Trace) Instant(pid, tid int, cat, name string, at int64, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", TS: at, Pid: pid, Tid: tid, Args: args,
	})
}

// CounterSample records a counter ("C") event, rendered by the trace
// viewer as a stacked area chart (e.g. SB/PB occupancy over time).
func (t *Trace) CounterSample(pid int, name string, at int64, values map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Ph: "C", TS: at, Pid: pid, Args: values,
	})
}

// traceFile is the Chrome trace JSON object form.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	OtherData       any          `json:"otherData,omitempty"`
}

// WriteJSON writes the trace in Chrome trace_event JSON object format,
// loadable by chrome://tracing and Perfetto.
func (t *Trace) WriteJSON(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ns"}
	if t != nil {
		f.TraceEvents = t.events
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
