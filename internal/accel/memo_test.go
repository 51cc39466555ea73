package accel

import (
	"reflect"
	"sync"
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/pipeline"
)

// TestMemoReplayByteIdenticalReport is the accelerator-level half of
// the determinism contract: a System backed by the functional-replay
// cache must produce a Report deeply equal to the direct System's —
// same cycles, same results, same utilization series, same energy.
func TestMemoReplayByteIdenticalReport(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 150, 17)
	memo := BuildMemo(a, nil, reads, 4)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"nvwa", smallOpts()},
		{"baseline", smallBaselineOpts()},
	} {
		direct, err := New(a, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		directRep := direct.Run(reads)

		o := tc.opts
		o.Memo = memo
		replay, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if replay.memo == nil {
			t.Fatalf("%s: memo not consumed", tc.name)
		}
		replayRep := replay.Run(reads)

		if !reflect.DeepEqual(directRep, replayRep) {
			t.Errorf("%s: replayed Report diverges from direct Report", tc.name)
			if directRep.Cycles != replayRep.Cycles {
				t.Errorf("  cycles: direct %d, replay %d", directRep.Cycles, replayRep.Cycles)
			}
			if directRep.TotalHits != replayRep.TotalHits {
				t.Errorf("  hits: direct %d, replay %d", directRep.TotalHits, replayRep.TotalHits)
			}
		}
	}
}

// TestMemoForeignSeederIgnored checks the front-end guard: a memo
// built over the default FM-index pipeline must not be consumed by a
// system configured with a different Seeder.
func TestMemoForeignSeederIgnored(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 40, 23)
	memo := BuildMemo(a, nil, reads, 2)
	ms, err := pipeline.NewMinimizerSeeder(a, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Seeder = ms
	o.Memo = memo
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.memo != nil {
		t.Fatal("memo built for the FM-index front end was consumed by a minimizer-seeded system")
	}
	// The run must still complete correctly off the live seeder.
	rep := sys.Run(reads)
	if rep.Reads != len(reads) {
		t.Fatalf("processed %d reads", rep.Reads)
	}
}

// TestMemoSharedAcrossConcurrentSystems runs many Systems off one Memo
// at once — the parallel experiment engine's exact shape — and checks
// every run agrees with the serial reference. Run under -race this is
// the memo's thread-safety proof.
func TestMemoSharedAcrossConcurrentSystems(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 100, 31)
	memo := BuildMemo(a, nil, reads, 4)

	ref, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(reads)

	const n = 8
	reps := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := smallOpts()
			o.Memo = memo
			sys, err := New(a, o)
			if err != nil {
				panic(err)
			}
			reps[i] = sys.Run(reads)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if !reflect.DeepEqual(want, rep) {
			t.Fatalf("concurrent run %d diverges from serial reference", i)
		}
	}
}

// TestMemoFallbackPaths exercises the cache-miss paths: unknown read
// indices and foreign hits must fall back to live computation instead
// of returning wrong cached values.
func TestMemoFallbackPaths(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 30, 41)
	memo := BuildMemo(a, nil, reads[:20], 2)

	// Read 25 is outside the built range: replay must still seed it.
	hits, st := memo.SeedAndChain(25, reads[25])
	wantHits, wantSt := a.SeedAndChain(25, reads[25])
	if len(hits) != len(wantHits) || st != wantSt {
		t.Fatalf("fallback seeding diverges: %d hits vs %d", len(hits), len(wantHits))
	}
	// A known read replays the cached result.
	gotHits, gotSt := memo.SeedAndChain(3, reads[3])
	directHits, directSt := a.SeedAndChain(3, reads[3])
	if !reflect.DeepEqual(gotHits, directHits) || gotSt != directSt {
		t.Fatal("cached seeding diverges from direct computation")
	}
	// Extensions of cached hits replay from the memo record; a hit
	// differing from the cached record in any one field falls back to
	// the live extension. Both are checked at System.extend, the one
	// replay site, through the completion task it schedules.
	if len(gotHits) == 0 {
		t.Fatal("read 3 has no hits to replay")
	}
	h := gotHits[0]
	oriented := pipeline.Orient(reads[3], h.Rev)
	wantExt, wantCost := a.ExtendHitCost(oriented, h)
	rec := memo.replayed(&h)
	if rec == nil || rec.ext != wantExt || rec.cost != wantCost {
		t.Fatalf("cached record for hit %d missing or wrong", h.HitIdx)
	}
	opts := smallOpts()
	opts.Memo = memo
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.memo == nil {
		t.Fatal("memo not consumed")
	}
	extend := func(h core.Hit) *euTask {
		probe := &euTask{s: s}
		s.euFree = append(s.euFree[:0], probe)
		s.extend(s.eus[0], &h)
		return probe
	}
	if tk := extend(h); tk.ext != &rec.ext {
		t.Fatalf("cached hit %d not served from its memo record", h.HitIdx)
	}
	// Each mutation keeps every flank window inside the oriented read and
	// the reference, so the live extension stays well defined.
	step := func(v, hi int) int {
		if v+1 < hi {
			return v + 1
		}
		return v - 1
	}
	for _, m := range []struct {
		field string
		mut   func(*core.Hit)
	}{
		{"ReadIdx", func(h *core.Hit) { h.ReadIdx = 4 }},
		{"HitIdx", func(h *core.Hit) { h.HitIdx++ }},
		{"Rev", func(h *core.Hit) { h.Rev = !h.Rev }},
		{"ReadBeg", func(h *core.Hit) { h.ReadBeg = step(h.ReadBeg, h.ReadEnd) }},
		{"ReadEnd", func(h *core.Hit) { h.ReadEnd = step(h.ReadEnd, len(oriented)+1) }},
		{"RefPos", func(h *core.Hit) { h.RefPos++ }},
		{"ReadLen", func(h *core.Hit) { h.ReadLen-- }},
		{"SeedScore", func(h *core.Hit) { h.SeedScore++ }},
	} {
		mut := h
		m.mut(&mut)
		if mut == h {
			t.Fatalf("%s: mutation left the hit unchanged", m.field)
		}
		if memo.replayed(&mut) != nil {
			t.Errorf("%s: mutated hit served from the cache", m.field)
		}
		liveExt, _ := a.ExtendHitCost(memo.Oriented(mut.ReadIdx, mut.Rev), mut)
		if tk := extend(mut); tk.ext != &tk.own || tk.own != liveExt {
			t.Errorf("%s: mutated hit did not fall back to live extension", m.field)
		}
	}
	// Oriented views match pipeline.Orient for both strands.
	for i := 0; i < 20; i++ {
		for _, rev := range []bool{false, true} {
			if !memo.Oriented(i, rev).Equal(pipeline.Orient(reads[i], rev)) {
				t.Fatalf("oriented view diverges for read %d rev=%v", i, rev)
			}
		}
	}
}
