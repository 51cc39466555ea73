package sim

import "testing"

// seriesOracle is the per-window formulation of Series: Utilization
// over every window, each a full rescan of the intervals. Series must
// match it bit for bit.
func seriesOracle(t *BusyTracker, end int64, n int) []float64 {
	out := make([]float64, n)
	if n == 0 || end <= 0 {
		return out
	}
	w := float64(end) / float64(n)
	for b := 0; b < n; b++ {
		lo := int64(float64(b) * w)
		hi := int64(float64(b+1) * w)
		if b == n-1 {
			hi = end
		}
		out[b] = t.Utilization(lo, hi)
	}
	return out
}

// groupSeriesOracle averages seriesOracle across trackers, adding each
// tracker's fractions in order.
func groupSeriesOracle(ts []*BusyTracker, end int64, n int) []float64 {
	out := make([]float64, n)
	if len(ts) == 0 {
		return out
	}
	for _, t := range ts {
		s := seriesOracle(t, end, n)
		for i := range out {
			out[i] += s[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(ts))
	}
	return out
}

// trackerFrom replays ops on a fresh tracker. Each byte advances the
// clock by (op>>1)*scale cycles, then marks the unit busy (odd op) or
// idle (even op), so the clock never runs backwards, as in the engine.
func trackerFrom(ops []byte, scale int64) *BusyTracker {
	var t BusyTracker
	var now int64
	for _, op := range ops {
		now += int64(op>>1) * scale
		if op&1 == 1 {
			t.SetBusy(now)
		} else {
			t.SetIdle(now)
		}
	}
	return &t
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSeriesVsUtilization pins the merged-sweep GroupSeries, over one
// tracker and over three, against the per-window Utilization oracle with exact
// float equality. The seeds cover an open interval running past end,
// more windows than cycles (empty windows), no windows at all, and
// intervals straddling window boundaries.
func FuzzSeriesVsUtilization(f *testing.F) {
	f.Add([]byte{21, 40, 11}, int64(30), uint16(4), uint8(0))              // open interval past end
	f.Add([]byte{1, 6, 200, 3}, int64(150), uint16(10), uint8(0))          // open interval starting after end
	f.Add([]byte{3, 8, 5, 10, 9}, int64(7), uint16(20), uint8(0))          // end < n: empty windows
	f.Add([]byte{3, 8, 5, 10}, int64(100), uint16(0), uint8(0))            // n = 0
	f.Add([]byte{1, 30, 9, 60, 7, 90, 3}, int64(100), uint16(7), uint8(2)) // straddling windows
	f.Add([]byte{}, int64(0), uint16(3), uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, end int64, n uint16, scale uint8) {
		// Windows are computed through float64; past 2^62 a window edge
		// could overflow int64, far beyond any simulated cycle count.
		if end >= 1<<62 {
			t.Skip()
		}
		nw := int(n % 512)
		sc := int64(scale) + 1
		tr := trackerFrom(ops, sc)
		if got, want := GroupSeries([]*BusyTracker{tr}, end, nw), seriesOracle(tr, end, nw); !sameSeries(got, want) {
			t.Fatalf("GroupSeries of one (%d, %d) = %v, oracle %v (intervals %v, open=%v)", end, nw, got, want, tr.intervals, tr.Busy())
		}
		group := []*BusyTracker{trackerFrom(ops[:len(ops)/2], sc), tr, trackerFrom(ops[len(ops)/2:], sc)}
		if got, want := GroupSeries(group, end, nw), groupSeriesOracle(group, end, nw); !sameSeries(got, want) {
			t.Fatalf("GroupSeries(%d, %d) = %v, oracle %v", end, nw, got, want)
		}
	})
}

var seriesSink []float64

// TestSeriesOneAlloc checks that GroupSeries over one tracker of 250
// intervals, and over several such trackers (the path Report runs),
// allocates only its output slice.
func TestSeriesOneAlloc(t *testing.T) {
	group := make([]*BusyTracker, 8)
	for k := range group {
		tr := &BusyTracker{}
		for i := int64(0); i < 250; i++ {
			tr.SetBusy(i*40 + int64(k))
			tr.SetIdle(i*40 + 25 + int64(2*k))
		}
		tr.SetBusy(250 * 40)
		group[k] = tr
	}
	one := group[:1]
	end := int64(251 * 40)
	if !sameSeries(GroupSeries(one, end, 100), seriesOracle(one[0], end, 100)) {
		t.Fatal("GroupSeries of one tracker diverges from the per-window oracle")
	}
	if !sameSeries(GroupSeries(group, end, 100), groupSeriesOracle(group, end, 100)) {
		t.Fatal("GroupSeries diverges from the per-window oracle")
	}
	if got := testing.AllocsPerRun(100, func() { seriesSink = GroupSeries(one, end, 100) }); got != 1 {
		t.Fatalf("GroupSeries of one tracker allocates %v times per call, want 1 (the output slice)", got)
	}
	if got := testing.AllocsPerRun(100, func() { seriesSink = GroupSeries(group, end, 100) }); got != 1 {
		t.Fatalf("GroupSeries allocates %v times per call, want 1 (the output slice)", got)
	}
}
