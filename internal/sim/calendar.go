package sim

import "math/bits"

// calendarQueue is the engine's event queue: a ring of per-cycle FIFO
// buckets plus a sorted far-future overflow heap. It pops in the
// identical (at, seq) total order as a plain binary heap over all
// events (eventHeap, which the tests use as the differential oracle).
//
// Why it wins: the simulated machine schedules almost every event a
// short, bounded distance into the future (SU/EU completions, round
// latencies, +1-cycle wakeups), so the queue is a classic calendar
// workload. A push lands in its cycle's bucket in O(1) — one append
// plus one bitmap bit — instead of an O(log n) sift that swaps 32-byte
// event records down the heap; a pop scans an occupancy bitmap word or
// two instead of sifting the tail back up. Only genuinely far-future
// events (beyond the calWindow-cycle horizon: retry backoffs, long
// seeding tails) pay heap costs, and each migrates into the ring at
// most once as the window advances past it.
//
// Ordering invariants, checked by TestCalendarVsHeap* and
// FuzzCalendarVsHeap:
//
//   - Every bucketed event has at in [base, base+calWindow), so the
//     ring index at&calMask is a bijection onto pending cycles and
//     bucket order ascending from base is cycle order.
//   - Every overflow event has at >= base+calWindow, so the whole
//     overflow heap orders after every bucketed event.
//   - Within a bucket all events share one cycle, so seq alone is the
//     residual order. Every push draws a fresh, higher seq, and
//     migration fills a bucket in heap order before any direct push
//     can reach its cycle, so appends keep each bucket seq-sorted.
//   - base only advances to the cycle of the event being popped (or,
//     with an empty ring, to the overflow minimum). Events are pushed
//     at or after the current cycle (clampCycle), and the current
//     cycle never exceeds the next pop's cycle, so no push can land
//     before base.
type calendarQueue struct {
	buckets []calBucket
	occ     []uint64 // occupancy bitmap over ring indices
	base    int64    // cycle of the earliest ring slot
	n       int      // bucketed event count
	over    eventHeap
}

// calBucket is one cycle's FIFO of events, drained through head so the
// backing array survives for reuse.
type calBucket struct {
	evs  []event
	head int
}

const (
	// calWindow is the ring span in cycles. It comfortably covers the
	// machine's common scheduling distances (unit completions, round
	// latencies, prefetch delays); longer jumps take the overflow path.
	calWindow = 1024
	calMask   = calWindow - 1
)

// calInitCap is each bucket's initial event capacity, carved from one
// contiguous backing array so that a bucket's first-ever append — which
// recurs forever as time advances around the ring — usually allocates
// nothing. Hot cycles (a round's worth of unit completions) grow past
// it once and keep the grown array, so growth stops after the first
// wrap of the ring at peak occupancy. Kept small on purpose: the carve
// is paid by every Engine at first push (calWindow × calInitCap × 32
// bytes), and a system builds one Engine per run.
const calInitCap = 4

func (c *calendarQueue) init() {
	c.buckets = make([]calBucket, calWindow)
	back := make([]event, calWindow*calInitCap)
	for i := range c.buckets {
		c.buckets[i].evs = back[i*calInitCap : i*calInitCap : (i+1)*calInitCap]
	}
	c.occ = make([]uint64, calWindow/64)
}

func (c *calendarQueue) len() int { return c.n + len(c.over) }

// push enqueues ev, bucketing it when its cycle is inside the current
// window and heaping it otherwise. now is the engine's current cycle:
// it anchors the window on first use — NOT the first event's cycle,
// because pre-run schedules arrive in arbitrary cycle order and only
// now lower-bounds them all (clampCycle enforces at >= now, and time
// never advances past a pending event).
func (c *calendarQueue) push(ev event, now int64) {
	if c.buckets == nil {
		c.init()
		c.base = now
	}
	if ev.at < c.base {
		panic("sim: calendar push before window base (at < base)")
	}
	if ev.at >= c.base+calWindow {
		c.over.push(ev)
		return
	}
	c.bucketPush(ev)
}

// bucketPush places an in-window event into its cycle bucket.
func (c *calendarQueue) bucketPush(ev event) {
	idx := int(ev.at & calMask)
	b := &c.buckets[idx]
	b.evs = append(b.evs, ev)
	c.occ[idx>>6] |= 1 << (uint(idx) & 63)
	c.n++
}

// migrate moves overflow events that the advanced window now covers
// into their buckets. Each overflow event migrates at most once.
func (c *calendarQueue) migrate() {
	for len(c.over) > 0 && c.over[0].at < c.base+calWindow {
		c.bucketPush(c.over.pop())
	}
}

// scanFrom returns the ring index of the first occupied bucket at or
// after base in cycle order, wrapping the ring. The caller guarantees
// n > 0.
func (c *calendarQueue) scanFrom() int {
	start := int(c.base & calMask)
	w0 := start >> 6
	off := uint(start & 63)
	// Partial first word: bits below the start position belong to
	// cycles later in the window (they wrapped), so mask them off.
	if word := c.occ[w0] &^ ((1 << off) - 1); word != 0 {
		return w0<<6 + bits.TrailingZeros64(word)
	}
	nw := len(c.occ)
	for i := 1; i <= nw; i++ {
		w := w0 + i
		if w >= nw {
			w -= nw
		}
		word := c.occ[w]
		if w == w0 {
			// Wrapped back to the first word: only the masked-off low
			// bits remain valid.
			word &= (1 << off) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: calendar occupancy bitmap empty with n > 0")
}

// peekAt returns the cycle of the next event in (at, seq) order. The
// caller guarantees len() > 0.
func (c *calendarQueue) peekAt() int64 {
	if c.n > 0 {
		idx := c.scanFrom()
		b := &c.buckets[idx]
		// All events in a bucket share the cycle.
		return b.evs[b.head].at
	}
	return c.over[0].at
}

// pop removes and returns the next event in (at, seq) order. The
// caller guarantees len() > 0.
func (c *calendarQueue) pop() event {
	if c.n == 0 {
		// Ring drained: jump the window to the overflow minimum and
		// pull everything the new window covers into buckets.
		c.base = c.over[0].at
		c.migrate()
	}
	idx := c.scanFrom()
	b := &c.buckets[idx]
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // release fn/task references
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		c.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	c.n--
	// Advance the window to the popped cycle — everything earlier has
	// fired, and future pushes are clamped to at >= this cycle — then
	// admit any overflow events the longer horizon now covers.
	if ev.at > c.base {
		c.base = ev.at
		c.migrate()
	}
	return ev
}

// appendEvents appends every pending event (in no particular order) —
// the inventory backing PendingEvents.
func (c *calendarQueue) appendEvents(out []event) []event {
	for i := range c.buckets {
		b := &c.buckets[i]
		out = append(out, b.evs[b.head:]...)
	}
	return append(out, c.over...)
}
