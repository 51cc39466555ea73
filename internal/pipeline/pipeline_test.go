package pipeline

import (
	"math/rand"
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/genome"
	"nvwa/internal/seq"
)

// hitAt builds a hit at refPos covering oriented read [beg,end).
func hitAt(refPos, beg, end, readLen int) core.Hit {
	return core.Hit{RefPos: refPos, ReadBeg: beg, ReadEnd: end, ReadLen: readLen, SeedScore: end - beg}
}

func testAligner(t *testing.T, refLen int, seed int64) (*Aligner, *genome.Reference) {
	t.Helper()
	ref := genome.Generate(genome.HumanLike(), refLen, seed)
	return New(ref.Seq, DefaultOptions()), ref
}

func TestAlignRecoversTruePositions(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 60000, 1)
	reads := genome.Simulate(ref, 150, genome.ShortReadConfig(2))
	correct, found := 0, 0
	for _, r := range reads {
		res := a.Align(r.ID, r.Seq)
		if !res.Found {
			continue
		}
		found++
		if abs(res.RefBeg-r.TruePos) <= 10 {
			correct++
		}
	}
	if found < 140 {
		t.Errorf("aligned only %d/150 reads", found)
	}
	// Synthetic genomes contain repeats, so a small fraction may map to
	// an equally good copy elsewhere; the vast majority must be exact.
	if correct < found*85/100 {
		t.Errorf("only %d/%d reads at the true locus", correct, found)
	}
}

func TestAlignStrandReporting(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 60000, 3)
	reads := genome.Simulate(ref, 100, genome.ShortReadConfig(4))
	agree := 0
	for _, r := range reads {
		res := a.Align(r.ID, r.Seq)
		if res.Found && res.Rev == r.TrueRev && abs(res.RefBeg-r.TruePos) <= 10 {
			agree++
		}
	}
	if agree < 80 {
		t.Errorf("strand+locus agreement only %d/100", agree)
	}
}

func TestAlignPerfectReadScore(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 30000, 5)
	// An error-free read must score exactly its length (all matches).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		off := rng.Intn(len(ref.Seq) - 101)
		read := ref.Seq[off : off+101].Clone()
		res := a.Align(0, read)
		if !res.Found {
			t.Fatal("perfect read not aligned")
		}
		if res.Score != 101 {
			t.Errorf("perfect read score = %d, want 101", res.Score)
		}
	}
}

func TestSeedAndChainProducesValidHits(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 60000, 7)
	reads := genome.Simulate(ref, 60, genome.ShortReadConfig(8))
	for _, r := range reads {
		hits, st := a.SeedAndChain(r.ID, r.Seq)
		if st.OccAccesses == 0 {
			t.Fatal("no index traffic recorded")
		}
		for _, h := range hits {
			if h.ReadIdx != r.ID {
				t.Fatalf("hit read index %d != %d", h.ReadIdx, r.ID)
			}
			if h.ReadBeg < 0 || h.ReadEnd > len(r.Seq) || h.ReadBeg >= h.ReadEnd {
				t.Fatalf("bad read span [%d,%d)", h.ReadBeg, h.ReadEnd)
			}
			if h.RefPos < 0 || h.RefPos+h.SchedLen() > len(ref.Seq) {
				t.Fatalf("bad ref pos %d", h.RefPos)
			}
			if h.ReadLen != len(r.Seq) {
				t.Fatalf("ReadLen %d != %d", h.ReadLen, len(r.Seq))
			}
			// The chain must be anchored by a genuine exact match. Seeds
			// merged across nearby diagonals shift the frame by a few
			// bases, so instead of comparing base-by-base we require a
			// contiguous run of matches somewhere in the span.
			oriented := Orient(r.Seq, h.Rev)
			run, best := 0, 0
			for i := 0; i < h.SchedLen(); i++ {
				if oriented[h.ReadBeg+i] == a.ref[h.RefPos+i] {
					run++
					if run > best {
						best = run
					}
				} else {
					run = 0
				}
			}
			want := 12
			if h.SchedLen() < want {
				want = h.SchedLen()
			}
			if best < want {
				t.Fatalf("chain span [%d,%d) has no %d-base exact anchor (best run %d)",
					h.ReadBeg, h.ReadEnd, want, best)
			}
		}
	}
}

func TestSeedAndChainRespectsMaxChains(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.MaxChains = 2
	ref := genome.Generate(genome.HumanLike(), 60000, 9)
	a := New(ref.Seq, opts)
	reads := genome.Simulate(ref, 40, genome.ShortReadConfig(10))
	for _, r := range reads {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		if len(hits) > 2 {
			t.Fatalf("got %d hits, cap was 2", len(hits))
		}
	}
}

// TestExtendHitMatchesFinish: Finish must equal the per-hit oracle,
// ExtendHitCost on each hit's oriented read followed by the selection
// rule (top score, ties to the lowest hit index).
func TestExtendHitMatchesFinish(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 40000, 11)
	reads := genome.Simulate(ref, 50, genome.ShortReadConfig(12))
	for _, r := range reads {
		hits, _ := a.SeedAndChain(r.ID, r.Seq)
		want := a.Finish(r.Seq, hits)
		got := Result{Hits: len(hits)}
		for _, h := range hits {
			ext, _ := a.ExtendHitCost(Orient(r.Seq, h.Rev), h)
			if !got.Found || ext.Score > got.Score {
				got = Result{Found: true, Score: ext.Score, RefBeg: ext.RefBeg, RefEnd: ext.RefEnd, Rev: ext.Rev, Hits: len(hits)}
			}
		}
		if got != want {
			t.Fatalf("per-hit extension disagrees with Finish: %+v vs %+v", got, want)
		}
	}
}

func TestExtendDims(t *testing.T) {
	t.Parallel()
	a, _ := testAligner(t, 40000, 13)
	h := hitAt(1000, 20, 60, 101)
	lr, lq, rr, rq := a.ExtendDims(h)
	if lq != 20 || rq != 41 {
		t.Errorf("query dims = %d,%d, want 20,41", lq, rq)
	}
	if lr < lq || rr < rq {
		t.Errorf("ref windows smaller than query: %d<%d or %d<%d", lr, lq, rr, rq)
	}
	// Near the reference start the left window must clamp.
	h2 := hitAt(5, 20, 60, 101)
	lr2, _, _, _ := a.ExtendDims(h2)
	if lr2 != 5 {
		t.Errorf("left window = %d, want clamped to 5", lr2)
	}
}

func TestProfileRecordsBothPhases(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 40000, 15)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(16))
	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	profs := a.Profile(seqs)
	if len(profs) != 30 {
		t.Fatalf("got %d profiles", len(profs))
	}
	totalSeed, totalExt := int64(0), int64(0)
	for i, p := range profs {
		if p.ReadID != i {
			t.Fatalf("profile %d has ReadID %d", i, p.ReadID)
		}
		totalSeed += p.SeedingNS
		totalExt += p.ExtensionNS
		if f := p.SeedingFraction(); f < 0 || f > 1 {
			t.Fatalf("seeding fraction %v", f)
		}
	}
	if totalSeed == 0 || totalExt == 0 {
		t.Error("profiling recorded zero time for a phase")
	}
}

func TestAlignAllMatchesSequential(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 40000, 17)
	reads := genome.Simulate(ref, 40, genome.ShortReadConfig(18))
	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	par, mapq, tput := a.AlignAll(seqs, 4)
	if tput <= 0 {
		t.Error("non-positive throughput")
	}
	for i, r := range reads {
		want := a.Align(i, r.Seq)
		if par[i] != want {
			t.Fatalf("read %d: parallel %+v != sequential %+v", i, par[i], want)
		}
		hits, _ := a.SeedAndChain(i, r.Seq)
		var scores []int
		for _, e := range a.ExtendAll(r.Seq, hits, nil) {
			scores = append(scores, int(e.Score))
		}
		best, second := SecondBest(scores)
		if q := MapQ(best, second, len(scores), a.Options().Scoring.Match); mapq[i] != q {
			t.Fatalf("read %d: MAPQ %d, want %d from a separate extension pass", i, mapq[i], q)
		}
	}
}

func TestHitLengths(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 40000, 19)
	reads := genome.Simulate(ref, 30, genome.ShortReadConfig(20))
	seqs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	lens := a.HitLengths(seqs)
	if len(lens) == 0 {
		t.Fatal("no hit lengths")
	}
	for _, l := range lens {
		if l < 0 || l > 101 {
			t.Fatalf("hit length %d out of range", l)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
