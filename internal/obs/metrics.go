// Package obs is the observability and invariant layer of the NvWa
// model: a metrics registry (counters, gauges, histograms, cycle time
// series), a Chrome trace_event writer for Fig. 12-style timelines,
// and a scheduler invariant checker that turns silent scheduling bugs
// into test failures.
//
// The layer is zero-overhead when disabled: every component holds a
// nil-able *Observer and all Observer methods are nil-safe no-ops, so
// an unobserved run takes one pointer test per hook. Observing a run
// never changes its behaviour — the determinism contract (byte-
// identical accel.Reports with observability on or off) is enforced by
// tests in internal/accel and internal/experiments.
//
// The package is stdlib-only (plus internal/core for hit records) so
// every simulated component — sim, coordinator, seedsched, extsched,
// su, eu, accel — can import it without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonically increasing int64 metric. A nil Counter
// ignores updates.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins float64 metric. A nil Gauge ignores
// updates.
type Gauge struct {
	v   float64
	set bool
}

// Set records the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.set = true
	}
}

// Histogram counts observations into fixed upper-bound buckets (the
// last bucket is +Inf). A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing
	counts []int64   // len(bounds)+1, last is overflow
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// SeriesPoint is one (cycle, value) sample of a time series.
type SeriesPoint struct {
	Cycle int64   `json:"cycle"`
	Value float64 `json:"value"`
}

// Series is a cycle-indexed time series, e.g. Store Buffer occupancy
// over the run. Samples at the same cycle coalesce (last value wins),
// so event-driven sampling stays bounded by the event count. A nil
// Series ignores samples.
type Series struct {
	points []SeriesPoint
}

// Sample records value at the given cycle. Cycles must be
// non-decreasing (the simulation clock is monotone).
func (s *Series) Sample(cycle int64, value float64) {
	if s == nil {
		return
	}
	if n := len(s.points); n > 0 && s.points[n-1].Cycle == cycle {
		s.points[n-1].Value = value
		return
	}
	s.points = append(s.points, SeriesPoint{Cycle: cycle, Value: value})
}

// Registry holds named metrics for one simulated machine. It is not
// safe for concurrent use: one Registry belongs to one single-threaded
// event loop (concurrently simulated systems each get their own).
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		series:     map[string]*Series{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// Registry returns a nil (no-op) Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bounds on first use (later calls may pass nil bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Series returns the named time series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry
	// for the overflow (+Inf) bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a point-in-time JSON-ready view of a Registry. Map keys
// serialise in sorted order (encoding/json sorts map keys), so
// snapshots of identical runs are byte-identical.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Series     map[string][]SeriesPoint     `json:"series"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Series:     map[string][]SeriesPoint{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if g.set {
			s.Gauges[name] = g.v
		}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: h.bounds,
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
	}
	for name, sr := range r.series {
		s.Series[name] = append([]SeriesPoint(nil), sr.points...)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal metrics snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
