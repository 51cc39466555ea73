package coordinator

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/core"
)

// Allocate is the reference Hits Allocator round: steps 2-6 of Fig. 10
// over inline 64-byte hit records, with a stable sort on SchedLen. It
// is the oracle AllocateIDs is pinned against, and the surface the
// policy tests drive.
func (a *Allocator) Allocate(window []core.Hit, idle []IdleUnit) (assigned []Assignment, unallocated []core.Hit) {
	if len(window) == 0 {
		return nil, nil
	}
	hits := append([]core.Hit(nil), window...)
	if a.strategy != FIFO {
		sort.SliceStable(hits, func(i, j int) bool { return hits[i].SchedLen() < hits[j].SchedLen() })
	}
	a.indexIdle(idle)
	for _, h := range hits {
		unit, ok := a.selectUnit(a.classifier.OptimalClass(h.SchedLen()))
		if !ok {
			unallocated = append(unallocated, h)
			continue
		}
		assigned = append(assigned, Assignment{Hit: h, Unit: unit})
		a.recordStats(h.SchedLen(), unit)
	}
	return assigned, unallocated
}

// valueBuffer is the reference Hits Buffer: the same double buffer
// holding inline hit records instead of arena IDs. It is the oracle
// HitsBuffer is pinned against.
type valueBuffer struct {
	depth            int
	threshold        float64
	sb, pb           []core.Hit
	offset, switches int
}

func newValueBuffer(depth int, threshold float64) *valueBuffer {
	return &valueBuffer{depth: depth, threshold: threshold}
}

func (b *valueBuffer) Push(h core.Hit) bool {
	if len(b.sb) >= b.depth {
		return false
	}
	b.sb = append(b.sb, h)
	return true
}

func (b *valueBuffer) PBRemaining() int { return len(b.pb) - b.offset }

func (b *valueBuffer) TrySwitch(force bool) bool {
	if b.PBRemaining() != 0 || len(b.sb) == 0 {
		return false
	}
	if !force && float64(len(b.sb)) < b.threshold*float64(b.depth) {
		return false
	}
	b.pb = append(b.pb[:0], b.sb...)
	b.sb = b.sb[:0]
	b.offset = 0
	b.switches++
	return true
}

func (b *valueBuffer) Window(batch int) []core.Hit {
	end := b.offset + batch
	if end > len(b.pb) {
		end = len(b.pb)
	}
	return b.pb[b.offset:end]
}

func (b *valueBuffer) Commit(allocated, unallocated []core.Hit) {
	copy(b.pb[b.offset:], allocated)
	copy(b.pb[b.offset+len(allocated):], unallocated)
	b.offset += len(allocated)
}

func (b *valueBuffer) Drop(n int) int {
	if n > b.PBRemaining() {
		n = b.PBRemaining()
	}
	if n <= 0 {
		return 0
	}
	b.offset += n
	return n
}

func (b *valueBuffer) EncodeState(enc *ckpt.Encoder) {
	enc.Section("coordinator.HitsBuffer")
	enc.PutInt(len(b.sb))
	enc.PutInt(len(b.pb))
	enc.PutInt(b.offset)
	enc.PutInt(b.switches)
	var d ckpt.Digest
	for _, h := range b.sb {
		h.Fold(&d)
	}
	enc.PutU64(d.Sum())
	d = ckpt.Digest{}
	for _, h := range b.pb {
		h.Fold(&d)
	}
	enc.PutU64(d.Sum())
}

// TestAllocateIDsMatchesAllocate pins the ID round against the value
// round: for the same hit values, idle pool, and strategy, both must
// produce the same assignments (hit value + unit), the same
// unallocated order, and the same quality stats. This is the proof
// that the packed-key sort reproduces sort.Stable's order exactly.
func TestAllocateIDsMatchesAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		ref := NewAllocator(testClasses, strat)
		opt := NewAllocator(testClasses, strat)
		var ar core.HitArena
		for round := 0; round < 300; round++ {
			n := 1 + rng.Intn(24)
			window := make([]core.Hit, n)
			ids := make([]core.HitID, n)
			for i := range window {
				// Duplicate lengths on purpose: equal keys exercise the
				// stable tie break.
				window[i] = hit(round*100+i, 1+rng.Intn(40))
				ids[i] = ar.Alloc(window[i])
			}
			idle := units(testClasses)[:rng.Intn(9)]
			wantAsg, wantUn := ref.Allocate(window, idle)
			gotAsg, gotUn := opt.AllocateIDs(&ar, ids, idle)

			if len(gotAsg) != len(wantAsg) || len(gotUn) != len(wantUn) {
				t.Fatalf("%v round %d: ID round assigned %d/unalloc %d, value round %d/%d",
					strat, round, len(gotAsg), len(gotUn), len(wantAsg), len(wantUn))
			}
			for i := range wantAsg {
				if got := ar.At(gotAsg[i].ID); got != wantAsg[i].Hit || gotAsg[i].Unit != wantAsg[i].Unit {
					t.Fatalf("%v round %d: assignment %d diverges: ID round (%+v on %+v), value round (%+v on %+v)",
						strat, round, i, got, gotAsg[i].Unit, wantAsg[i].Hit, wantAsg[i].Unit)
				}
			}
			for i := range wantUn {
				if got := ar.At(gotUn[i]); got != wantUn[i] {
					t.Fatalf("%v round %d: unallocated %d diverges: ID round %+v, value round %+v",
						strat, round, i, got, wantUn[i])
				}
			}
			for _, id := range ids {
				ar.Free(id)
			}
		}
		rs, os := ref.Stats(), opt.Stats()
		if rs.Optimal != os.Optimal || rs.NearOptimal != os.NearOptimal {
			t.Fatalf("%v: stats diverge: value %+v, ID %+v", strat, rs, os)
		}
	}
}

// TestAllocateIDsWarmZeroAlloc extends the round-scratch contract to
// the ID round: warm AllocateIDs must not touch the heap.
func TestAllocateIDsWarmZeroAlloc(t *testing.T) {
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		a := NewAllocator(testClasses, strat)
		var ar core.HitArena
		rng := rand.New(rand.NewSource(41))
		ids := make([]core.HitID, 24)
		for i := range ids {
			ids[i] = ar.Alloc(hit(i, 1+rng.Intn(200)))
		}
		idle := units(testClasses)
		a.AllocateIDs(&ar, ids, idle) // warm
		allocs := testing.AllocsPerRun(100, func() {
			a.AllocateIDs(&ar, ids, idle)
		})
		if allocs != 0 {
			t.Errorf("%v: warm AllocateIDs performs %v allocs per round, want 0", strat, allocs)
		}
	}
}

// TestHitsBufferArenaMatchesValue drives the reference value buffer
// and the arena buffer through an identical randomized push / switch /
// allocate / commit / drop schedule and checks every observable —
// occupancy, switch count, window contents, and the checkpoint state
// inventory — stays byte-identical.
func TestHitsBufferArenaMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := newValueBuffer(32, 0.75)
	opt := NewHitsBuffer(32, 0.75)
	arena := opt.Arena()
	alloc := NewAllocator(testClasses, Grouped)
	allocID := NewAllocator(testClasses, Grouped)

	checkState := func(step int) {
		t.Helper()
		if len(ref.sb) != opt.SBLen() || ref.PBRemaining() != opt.PBRemaining() ||
			ref.switches != opt.Switches() || ref.offset != opt.Offset() {
			t.Fatalf("step %d: occupancy diverges: value (sb=%d pb=%d sw=%d off=%d), arena (sb=%d pb=%d sw=%d off=%d)",
				step, len(ref.sb), ref.PBRemaining(), ref.switches, ref.offset,
				opt.SBLen(), opt.PBRemaining(), opt.Switches(), opt.Offset())
		}
		var re, oe ckpt.Encoder
		ref.EncodeState(&re)
		opt.EncodeState(&oe)
		if !bytes.Equal(re.Bytes(), oe.Bytes()) {
			t.Fatalf("step %d: EncodeState diverges between value and arena buffers", step)
		}
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(5) {
		case 0, 1: // push
			h := hit(step, 1+rng.Intn(60))
			if got, want := opt.Push(h), ref.Push(h); got != want {
				t.Fatalf("step %d: arena Push=%v, value Push=%v", step, got, want)
			}
		case 2: // switch (sometimes forced)
			force := rng.Intn(3) == 0
			if got, want := opt.TrySwitch(force), ref.TrySwitch(force); got != want {
				t.Fatalf("step %d: arena TrySwitch=%v, value TrySwitch=%v", step, got, want)
			}
		case 3: // allocation round
			idle := units(testClasses)[:rng.Intn(9)]
			win := ref.Window(16)
			winIDs := opt.WindowIDs(16)
			if len(win) != len(winIDs) {
				t.Fatalf("step %d: window sizes diverge: %d vs %d", step, len(win), len(winIDs))
			}
			for i := range win {
				if arena.At(winIDs[i]) != win[i] {
					t.Fatalf("step %d: window entry %d diverges", step, i)
				}
			}
			if len(win) == 0 {
				continue
			}
			asg, un := alloc.Allocate(win, idle)
			asgID, unID := allocID.AllocateIDs(arena, winIDs, idle)
			ref.Commit(assignmentHits(asg), un)
			ids := make([]core.HitID, len(asgID))
			for i, a := range asgID {
				ids[i] = a.ID
			}
			opt.CommitIDs(ids, unID)
		case 4: // drop
			n := rng.Intn(3)
			if got, want := opt.Drop(n, "test"), ref.Drop(n); got != want {
				t.Fatalf("step %d: arena Drop=%d, value Drop=%d", step, got, want)
			}
		}
		checkState(step)
	}

	// Drain: force-switch leftovers through, then release and audit.
	for opt.TrySwitch(true) {
		opt.Drop(opt.PBRemaining(), "drain")
		ref.TrySwitch(true)
		ref.Drop(ref.PBRemaining())
	}
	opt.ReleaseAll()
	if err := arena.CheckDrained(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func assignmentHits(asg []Assignment) []core.Hit {
	out := make([]core.Hit, len(asg))
	for i, a := range asg {
		out[i] = a.Hit
	}
	return out
}
