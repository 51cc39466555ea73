package pipeline

import (
	"testing"

	"nvwa/internal/align"
	"nvwa/internal/genome"
)

// TestReferenceKernelsIdentical pins the fast-path invariant at the
// pipeline level: with SetReferenceKernels(true) the aligner runs the
// original map-based seeding over block-scanning rank and the full-row
// extension DP, and every output — hits, index-traffic stats, and
// final alignments — must be identical to the optimized kernels'.
func TestReferenceKernelsIdentical(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 50000, 11)
	reads := genome.Simulate(ref, 120, genome.ShortReadConfig(4))
	for _, r := range reads {
		fastHits, fastSt := a.SeedAndChain(r.ID, r.Seq)
		fastRes := a.Finish(r.Seq, fastHits)

		a.SetReferenceKernels(true)
		refHits, refSt := a.SeedAndChain(r.ID, r.Seq)
		refRes := a.Finish(r.Seq, refHits)
		a.SetReferenceKernels(false)

		if fastSt != refSt {
			t.Fatalf("read %d: stats diverge: fast=%+v reference=%+v", r.ID, fastSt, refSt)
		}
		if len(fastHits) != len(refHits) {
			t.Fatalf("read %d: %d hits fast, %d reference", r.ID, len(fastHits), len(refHits))
		}
		for i := range fastHits {
			if fastHits[i] != refHits[i] {
				t.Fatalf("read %d hit %d: fast=%+v reference=%+v", r.ID, i, fastHits[i], refHits[i])
			}
		}
		if fastRes != refRes {
			t.Fatalf("read %d: result diverges: fast=%+v reference=%+v", r.ID, fastRes, refRes)
		}
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
