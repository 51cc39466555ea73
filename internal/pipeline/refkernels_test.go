package pipeline

import (
	"reflect"
	"testing"

	"nvwa/internal/align"
	"nvwa/internal/core"
	"nvwa/internal/fmindex"
	"nvwa/internal/genome"
	"nvwa/internal/seq"
)

// TestReferenceKernelsIdentical pins the seeding half of SeedAndChain
// to its oracle at pipeline defaults: for every simulated read, the
// warm-workspace SeedsWS call SeedAndChain runs must return the same
// seeds (values and order) and charge the same Stats as SeedsReference,
// the map-based, allocating three-pass seeder. An SU's cycle cost is a
// function of the hits and Stats alone, so this also pins SU timing to
// the oracle. The extension half is pinned by
// TestExtendFlanksMatchReference.
func TestReferenceKernelsIdentical(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 50000, 11)
	o := a.Options()
	var ws fmindex.Workspace
	for _, r := range genome.Simulate(ref, 120, genome.ShortReadConfig(4)) {
		var stWS, stRef fmindex.Stats
		got := a.Seeder().SeedsWS(&ws, r.Seq, o.MinSeedLen, o.MaxOcc, o.MaxMemIntv, &stWS)
		want := a.Seeder().SeedsReference(r.Seq, o.MinSeedLen, o.MaxOcc, o.MaxMemIntv, &stRef)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d: seeds diverge:\n workspace=%+v\n reference=%+v", r.ID, got, want)
		}
		if stWS != stRef {
			t.Fatalf("read %d: stats diverge: workspace=%+v reference=%+v", r.ID, stWS, stRef)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAlignWarmAllocs pins the software aligner's allocations: on a
// HumanLike 100 kbp reference (seed 7) and 200 ShortReadConfig(9)
// reads, warm Align calls average at most one heap allocation each,
// the hits SeedAndChain returns. Seeding, chaining, both flank
// extensions, the reverse complement and the extension records all
// live in pooled scratch. The average is taken the way testing.B
// reports allocs/op, total allocations integer-divided by calls.
func TestAlignWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	ref := genome.Generate(genome.HumanLike(), 100000, 7)
	a := New(ref.Seq, DefaultOptions())
	var reads []seq.Seq
	for _, r := range genome.Simulate(ref, 200, genome.ShortReadConfig(9)) {
		reads = append(reads, r.Seq)
	}
	// AllocsPerRun makes one uncounted warm-up pass first.
	perPass := testing.AllocsPerRun(1, func() {
		for _, r := range reads {
			a.Align(0, r)
		}
	})
	if perCall := int(perPass) / len(reads); perCall > 1 {
		t.Fatalf("warm Align averages %d allocs per call (%.0f over %d calls), want <= 1",
			perCall, perPass, len(reads))
	}
}

// TestExtendAllZeroAlloc: a warm ExtendAll into a dst that already has
// room for every record allocates nothing, on forward and reverse
// hits alike.
func TestExtendAllZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	a, ref := testAligner(t, 50000, 17)
	type job struct {
		read seq.Seq
		hits []core.Hit
	}
	var jobs []job
	rev := false
	for _, r := range genome.Simulate(ref, 60, genome.ShortReadConfig(18)) {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		for _, h := range hits {
			rev = rev || h.Rev
		}
		jobs = append(jobs, job{r.Seq, hits})
	}
	if !rev {
		t.Fatal("no reverse-strand hit in the workload")
	}
	dst := make([]Extended, 0, 64)
	if n := testing.AllocsPerRun(5, func() {
		for _, j := range jobs {
			dst = a.ExtendAll(j.read, j.hits, dst[:0])
		}
	}); n != 0 {
		t.Fatalf("warm ExtendAll allocates %.1f times per pass, want 0", n)
	}
}

// TestExtendAllMatchesExtendHitCost: for short and 1 kbp reads on both
// strands, each record ExtendAll appends expands to exactly the
// (Extension, ExtendCost) ExtendHitCost returns for that hit on its
// separately oriented read, in hit order, after whatever dst held.
func TestExtendAllMatchesExtendHitCost(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 30000, 19)
	reads := genome.Simulate(ref, 60, genome.ShortReadConfig(20))
	reads = append(reads, genome.Simulate(ref, 8, genome.LongReadConfig(21))...)
	strands := map[bool]int{}
	prefix := []Extended{{Score: -1}}
	for _, r := range reads {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		got := a.ExtendAll(r.Seq, hits, prefix)
		if len(got) != 1+len(hits) || got[0] != prefix[0] {
			t.Fatalf("read %d: ExtendAll returned %d records over a 1-record dst for %d hits",
				r.ID, len(got), len(hits))
		}
		for k, h := range hits {
			wantExt, wantCost := a.ExtendHitCost(Orient(r.Seq, h.Rev), h)
			e := got[1+k]
			if e.Ext(h) != wantExt || e.Cost() != wantCost {
				t.Fatalf("read %d hit %d (rev=%v): record expands to (%+v, %+v), want (%+v, %+v)",
					r.ID, k, h.Rev, e.Ext(h), e.Cost(), wantExt, wantCost)
			}
			strands[h.Rev]++
		}
	}
	if strands[false] == 0 || strands[true] == 0 {
		t.Fatalf("hits per strand %v; want both strands covered", strands)
	}
}

// TestExtendFlanksMatchReference drives the extension kernel on the
// flanks the pipeline really extends: every left and right flank of
// every hit of short and 1 kbp long reads, built by the same code as
// ExtendHitCost, must give ExtendWithScratch's (score, refEnd,
// readEnd, rows) equal to ExtendReference's.
func TestExtendFlanksMatchReference(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 30000, 13)
	nShort, nLong := 120, 24
	if testing.Short() {
		nShort, nLong = 40, 6
	}
	reads := genome.Simulate(ref, nShort, genome.ShortReadConfig(5))
	reads = append(reads, genome.Simulate(ref, nLong, genome.LongReadConfig(6))...)
	sc, zdrop := a.opts.Scoring, a.opts.ZDrop
	scr := &alnScratch{}
	var dp align.Scratch
	flanks, longFlanks := 0, 0
	for _, r := range reads {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		for _, h := range hits {
			oriented := Orient(r.Seq, h.Rev)
			lr, lq, rr, rq := a.flanks(scr, oriented, h)
			init := h.SeedScore // the right flank starts from the left's score
			for _, f := range [][2][]byte{{lr, lq}, {rr, rq}} {
				if f[1] == nil {
					continue
				}
				flanks++
				if len(f[1]) >= 500 {
					longFlanks++
				}
				ws, wi, wj, wrows := align.ExtendWithScratch(&dp, f[0], f[1], sc, init, zdrop)
				rs, ri, rj, rrows := align.ExtendReference(f[0], f[1], sc, init, zdrop)
				if ws != rs || wi != ri || wj != rj || wrows != rrows {
					t.Fatalf("read %d hit %+v flank %dx%d init %d: scratch=(%d,%d,%d,%d) reference=(%d,%d,%d,%d)",
						r.ID, h, len(f[0]), len(f[1]), init, ws, wi, wj, wrows, rs, ri, rj, rrows)
				}
				init = rs
			}
		}
	}
	if flanks == 0 || longFlanks == 0 {
		t.Fatalf("extended %d flanks, %d of them >= 500 bp; want both > 0", flanks, longFlanks)
	}
}
