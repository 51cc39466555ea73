package sim

import "nvwa/internal/ckpt"

// Interval is a half-open busy span [Beg, End) in cycles.
type Interval struct {
	Beg, End int64
}

// BusyTracker records when a unit is busy, accumulating the intervals
// needed for utilization figures (paper Fig. 12).
type BusyTracker struct {
	intervals []Interval
	busySince int64
	busy      bool
	total     int64
}

// SetBusy marks the unit busy from cycle now. Calling it while already
// busy is a no-op.
func (t *BusyTracker) SetBusy(now int64) {
	if t.busy {
		return
	}
	t.busy = true
	t.busySince = now
}

// SetIdle marks the unit idle from cycle now, closing the current busy
// interval. Calling it while idle is a no-op.
func (t *BusyTracker) SetIdle(now int64) {
	if !t.busy {
		return
	}
	t.busy = false
	if now > t.busySince {
		t.intervals = append(t.intervals, Interval{t.busySince, now})
		t.total += now - t.busySince
	}
}

// Busy reports the current state.
func (t *BusyTracker) Busy() bool { return t.busy }

// Utilization returns the busy fraction within [beg, end).
func (t *BusyTracker) Utilization(beg, end int64) float64 {
	if end <= beg {
		return 0
	}
	var busy int64
	for _, iv := range t.intervals {
		busy += overlap(iv, beg, end)
	}
	if t.busy {
		busy += overlap(Interval{t.busySince, end}, beg, end)
	}
	return float64(busy) / float64(end-beg)
}

func overlap(iv Interval, beg, end int64) int64 {
	lo, hi := iv.Beg, iv.End
	if lo < beg {
		lo = beg
	}
	if hi > end {
		hi = end
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

// EncodeState writes the tracker's canonical state inventory: current
// state, accumulated total, and a digest over the closed intervals
// (storing each interval would make checkpoints grow with run length
// while the digest detects any divergence equally well).
func (t *BusyTracker) EncodeState(enc *ckpt.Encoder) {
	enc.PutBool(t.busy)
	enc.PutI64(t.busySince)
	enc.PutI64(t.total)
	enc.PutInt(len(t.intervals))
	var d ckpt.Digest
	for _, iv := range t.intervals {
		d.I64(iv.Beg)
		d.I64(iv.End)
	}
	enc.PutU64(d.Sum())
}

// Intervals returns the recorded busy intervals (excluding an open one).
func (t *BusyTracker) Intervals() []Interval { return t.intervals }

// Series buckets [0, end) into n windows and returns the busy fraction
// of each, producing the time-series of the Fig. 12 plots. It equals
// Utilization over each window, bit for bit, in one merged pass over
// the intervals; the output slice is its only allocation.
func (t *BusyTracker) Series(end int64, n int) []float64 {
	out := make([]float64, n)
	t.addSeries(out, end)
	return out
}

// addSeries adds the busy fraction of each of len(out) windows over
// [0, end) to out. Intervals are appended in time order (the engine's
// clock never runs backwards), and the windows ascend too, so one
// cursor walks both: an interval ending at or before a window's start
// can reach no later window, and the first interval starting at or
// after a window's end closes that window's scan. Busy cycles are
// summed as integers and divided once per window, exactly as
// Utilization does.
func (t *BusyTracker) addSeries(out []float64, end int64) {
	n := len(out)
	if n == 0 || end <= 0 {
		return
	}
	w := float64(end) / float64(n)
	ivs := t.intervals
	first := 0
	for b := 0; b < n; b++ {
		lo := int64(float64(b) * w)
		hi := int64(float64(b+1) * w)
		if b == n-1 {
			hi = end
		}
		if hi <= lo {
			continue
		}
		for first < len(ivs) && ivs[first].End <= lo {
			first++
		}
		var busy int64
		for _, iv := range ivs[first:] {
			if iv.Beg >= hi {
				break
			}
			busy += overlap(iv, lo, hi)
		}
		if t.busy {
			busy += overlap(Interval{t.busySince, hi}, lo, hi)
		}
		out[b] += float64(busy) / float64(hi-lo)
	}
}

// GroupUtilization averages the utilization of several trackers over
// [beg, end), e.g. all SUs of the accelerator.
func GroupUtilization(ts []*BusyTracker, beg, end int64) float64 {
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range ts {
		sum += t.Utilization(beg, end)
	}
	return sum / float64(len(ts))
}

// GroupSeries averages Series across trackers.
func GroupSeries(ts []*BusyTracker, end int64, n int) []float64 {
	out := make([]float64, n)
	if len(ts) == 0 {
		return out
	}
	// Each tracker's fraction is divided out before trackers are added,
	// in order: summing busy cycles across trackers first would round
	// differently and change the series' last bits.
	for _, t := range ts {
		t.addSeries(out, end)
	}
	for i := range out {
		out[i] /= float64(len(ts))
	}
	return out
}
