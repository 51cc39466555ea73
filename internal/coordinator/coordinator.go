// Package coordinator implements NvWa's Coordinator (paper Sec. IV-D):
// the double-buffered Hits Buffer (Store Buffer + Processing Buffer)
// that decouples SUs from EUs, the fragmentation-avoiding write-back
// of allocation-failed hits, and the 9-step low-latency greedy Hits
// Allocator that dispatches each hit to its optimal or near-optimal
// extension unit.
package coordinator

import (
	"fmt"

	"nvwa/internal/ckpt"
	"nvwa/internal/core"
	"nvwa/internal/obs"
)

// HitsBuffer is the Coordinator's double buffer. SUs push into the
// Store Buffer (SB); allocation rounds consume the Processing Buffer
// (PB) through a moving offset; when the SB fill reaches the switch
// threshold and the PB is drained, the buffers swap.
//
// Hits are interned into the buffer's own arena on Push, and both
// sides hold 4-byte IDs instead of 64-byte records; allocation rounds
// run over IDs (WindowIDs/CommitIDs). A hit's ID stays valid while it
// sits anywhere in pb — including the consumed prefix, which
// EncodeState still digests — so IDs are recycled only when a PB
// generation is discarded at the next switch (or ReleaseAll).
type HitsBuffer struct {
	depth     int
	threshold float64
	arena     *core.HitArena
	sb        []core.HitID
	pb        []core.HitID
	offset    int
	switches  int

	obs   *obs.Observer
	clock func() int64
}

// NewHitsBuffer builds a buffer of the given per-side depth and switch
// threshold (paper: depth 1024, threshold 0.75) over a fresh arena.
func NewHitsBuffer(depth int, threshold float64) *HitsBuffer {
	if depth <= 0 {
		panic("coordinator: buffer depth must be positive")
	}
	if threshold <= 0 || threshold > 1 {
		panic("coordinator: switch threshold out of (0,1]")
	}
	ar := &core.HitArena{}
	// Peak liveness is both buffer generations (the consumed PB prefix
	// stays live until the next switch) plus retry slack.
	ar.Reserve(2*depth + 64)
	return &HitsBuffer{depth: depth, threshold: threshold, arena: ar}
}

// Arena returns the arena the buffer interns its hits in.
func (b *HitsBuffer) Arena() *core.HitArena { return b.arena }

// Depth returns the per-side capacity in hits.
func (b *HitsBuffer) Depth() int { return b.depth }

// AttachObs wires an observer and a cycle clock into the buffer so
// pushes, switches, and commits emit metrics and trace events with
// simulation timestamps. A nil observer detaches.
func (b *HitsBuffer) AttachObs(o *obs.Observer, clock func() int64) {
	b.obs = o
	b.clock = clock
}

func (b *HitsBuffer) now() int64 {
	if b.clock == nil {
		return 0
	}
	return b.clock()
}

// Push stores a hit into the SB. It returns false when the SB is full,
// in which case the producing SU must stall (the paper's "blocking"
// state).
func (b *HitsBuffer) Push(h core.Hit) bool {
	if b.SBLen() >= b.depth {
		if b.obs != nil {
			b.obs.BufferPushBlocked(b.now())
		}
		return false
	}
	b.sb = append(b.sb, b.arena.Alloc(h))
	if b.obs != nil {
		b.obs.Inv.RecordPush(1)
		b.obs.BufferPush(b.now(), b.SBLen(), b.depth)
	}
	return true
}

// SBLen returns the Store Buffer occupancy.
func (b *HitsBuffer) SBLen() int { return len(b.sb) }

// PBRemaining returns the number of unallocated hits in the PB.
func (b *HitsBuffer) PBRemaining() int { return len(b.pb) - b.offset }

// Switches returns how many buffer switches have occurred.
func (b *HitsBuffer) Switches() int { return b.switches }

// thresholdMet is the switch-threshold predicate: the SB fill has
// reached threshold*depth.
func (b *HitsBuffer) thresholdMet() bool {
	return float64(b.SBLen()) >= b.threshold*float64(b.depth)
}

// TrySwitch swaps the buffers when the switch condition holds (the SB
// has reached the threshold and the PB is drained); force additionally
// allows a switch with any nonempty SB (used to drain the pipeline at
// end of input, so a final sub-threshold SB is never stranded). It
// reports whether a switch happened.
func (b *HitsBuffer) TrySwitch(force bool) bool {
	if b.PBRemaining() != 0 || b.SBLen() == 0 {
		return false
	}
	forced := !b.thresholdMet()
	if !force && forced {
		return false
	}
	// The outgoing PB generation is fully consumed (dispatched or
	// dropped); discarding it is the one point its IDs stop being
	// reachable, so recycle them here.
	for _, id := range b.pb {
		b.arena.Free(id)
	}
	b.pb = append(b.pb[:0], b.sb...)
	b.sb = b.sb[:0]
	b.offset = 0
	b.switches++
	if b.obs != nil {
		b.obs.BufferSwitch(b.now(), b.switches, len(b.pb), forced)
	}
	return true
}

// WindowIDs returns the current allocation window: up to batch
// unallocated hit IDs starting at the PB offset (step 1 of Fig. 10).
//
// Contract: the returned slice aliases the Processing Buffer. Callers
// must treat it as read-only — mutating an entry would corrupt the
// compaction CommitIDs performs over the same backing array.
// Allocator.AllocateIDs sorts packed keys, never the window, for
// exactly this reason, and the obs.Invariants checker verifies after
// every round that the window's hits are unchanged.
func (b *HitsBuffer) WindowIDs(batch int) []core.HitID {
	end := b.offset + batch
	if end > len(b.pb) {
		end = len(b.pb)
	}
	return b.pb[b.offset:end]
}

// WindowLen returns the size of the current allocation window.
func (b *HitsBuffer) WindowLen(batch int) int {
	if n := b.PBRemaining(); batch > n {
		return n
	}
	return batch
}

// CommitIDs applies an allocation round's outcome to the PB: within
// the window, allocated hits move to the top and unallocated hits are
// written back after them, and the offset advances past the allocated
// ones (steps 7-9 of Fig. 10, the fragmentation solution). Allocated
// IDs land in the consumed prefix — still digested by EncodeState,
// still live — and are recycled when this PB generation is discarded.
func (b *HitsBuffer) CommitIDs(allocated, unallocated []core.HitID) {
	n := len(allocated) + len(unallocated)
	if n > len(b.pb)-b.offset {
		panic(fmt.Sprintf("coordinator: commit of %d hits exceeds window of %d", n, len(b.pb)-b.offset))
	}
	copy(b.pb[b.offset:], allocated)
	copy(b.pb[b.offset+len(allocated):], unallocated)
	b.offset += len(allocated)
	if b.obs != nil {
		b.obs.Inv.RecordAssigned(len(allocated))
		b.obs.BufferOccupancy(b.now(), b.SBLen(), b.PBRemaining())
		b.obs.Inv.CheckBuffer(b.now(), b.SBLen(), len(b.pb), b.offset, b.depth)
	}
}

// Drop discards up to n unallocated hits from the front of the PB
// window with a reason, advancing the offset past them. It is the
// drain path's last resort for provably unallocatable hits (e.g. the
// Exclusive strategy with an empty unit class): dropping with a
// recorded reason keeps the hit-conservation invariant auditable
// instead of stranding hits silently. It returns how many hits were
// dropped.
func (b *HitsBuffer) Drop(n int, reason string) int {
	if n > b.PBRemaining() {
		n = b.PBRemaining()
	}
	if n <= 0 {
		return 0
	}
	b.offset += n
	if b.obs != nil {
		b.obs.HitsDropped(b.now(), n, reason)
		b.obs.BufferOccupancy(b.now(), b.SBLen(), b.PBRemaining())
	}
	return n
}

// ReleaseAll recycles every ID the buffer still references (both
// sides, consumed prefix included) back to the arena. The drain path
// calls it once the pipeline is empty so an end-of-run arena audits as
// fully drained; the buffer is unusable for further pushes against
// those IDs afterwards.
func (b *HitsBuffer) ReleaseAll() {
	for _, id := range b.sb {
		b.arena.Free(id)
	}
	for _, id := range b.pb {
		b.arena.Free(id)
	}
	b.sb = b.sb[:0]
	b.pb = b.pb[:0]
	b.offset = 0
}

// EncodeState writes the buffer's canonical state inventory: both
// queue fills, the PB consumption offset, the switch counter, and a
// digest over every queued hit record. Depth and threshold are
// configuration, covered by the options hash instead. IDs are
// dereferenced and the hit VALUES folded in buffer order, so the
// inventory depends only on the hit stream, never on slot reuse.
func (b *HitsBuffer) EncodeState(enc *ckpt.Encoder) {
	enc.Section("coordinator.HitsBuffer")
	enc.PutInt(b.SBLen())
	enc.PutInt(len(b.pb))
	enc.PutInt(b.offset)
	enc.PutInt(b.switches)
	var d ckpt.Digest
	for _, id := range b.sb {
		b.arena.At(id).Fold(&d)
	}
	enc.PutU64(d.Sum())
	d = ckpt.Digest{}
	for _, id := range b.pb {
		b.arena.At(id).Fold(&d)
	}
	enc.PutU64(d.Sum())
}
