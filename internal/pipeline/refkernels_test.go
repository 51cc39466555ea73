package pipeline

import (
	"reflect"
	"testing"

	"nvwa/internal/align"
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

// TestAlignWarmAllocs keeps the allocation ceiling the kernel
// guardrail once held the software aligner to: on a HumanLike 100 kbp
// reference (seed 7) and 200 ShortReadConfig(9) reads, warm Align calls
// average at most 7 heap allocations each (the returned hits, the
// extensions and the reverse-complement view). The average is taken
// the way testing.B reports allocs/op, total allocations integer-
// divided by calls, so the ceiling is the one BENCH_kernels.json
// recorded for this workload.
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
	if perCall := int(perPass) / len(reads); perCall > 7 {
		t.Fatalf("warm Align averages %d allocs per call (%.0f over %d calls), want <= 7",
			perCall, perPass, len(reads))
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
