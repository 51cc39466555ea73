package pipeline

import (
	"testing"

	"nvwa/internal/align"
	"nvwa/internal/genome"
	"nvwa/internal/seq"
)

func TestCigarRoundTrip(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 50000, 23)
	reads := genome.Simulate(ref, 60, genome.ShortReadConfig(24))
	traced := 0
	for _, r := range reads {
		res := a.Align(r.ID, r.Seq)
		if !res.Found {
			continue
		}
		tb, err := a.Cigar(r.Seq, res)
		if err != nil {
			t.Fatal(err)
		}
		traced++
		// The path must be internally consistent and score-checkable:
		// ScoreCigar also checks that it consumes exactly the aligned
		// read and reference spans.
		oriented := Orient(r.Seq, res.Rev)
		if got, err := align.ScoreCigar(a.Ref(), oriented, tb, a.Options().Scoring); err != nil {
			t.Fatalf("read %d: invalid path: %v", r.ID, err)
		} else if got != tb.Score {
			t.Fatalf("read %d: path score %d != %d", r.ID, got, tb.Score)
		}
		// The full-DP traceback score tracks the pipeline's extension
		// score closely; the extension anchors at chain edges, so
		// chains merged across nearby diagonals may overvalue by up to
		// roughly a gap's cost.
		sc := a.Options().Scoring
		slack := sc.GapOpen + a.Options().ChainBand*sc.GapExtend
		if tb.Score < res.Score-slack {
			t.Fatalf("read %d: traceback score %d far below pipeline score %d", r.ID, tb.Score, res.Score)
		}
	}
	if traced < 50 {
		t.Errorf("only %d reads traced back", traced)
	}
}

func TestCigarUnalignedRead(t *testing.T) {
	t.Parallel()
	a, _ := testAligner(t, 30000, 25)
	if _, err := a.Cigar(make([]byte, 101), Result{}); err == nil {
		t.Error("Cigar on an unaligned result must error")
	}
}

func TestCigarPerfectRead(t *testing.T) {
	t.Parallel()
	a, ref := testAligner(t, 30000, 26)
	read := ref.Seq[4000:4101].Clone()
	res := a.Align(0, read)
	if !res.Found {
		t.Fatal("perfect read unaligned")
	}
	tb, err := a.Cigar(read, res)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cigar.String() != "101M" {
		t.Errorf("perfect read cigar = %s", tb.Cigar)
	}
}

// TestCigarWarmAllocs: a warm Cigar runs its traceback DP in pooled
// scratch, so it allocates only the CIGAR it returns, one per call, on
// forward and reverse-strand results alike.
func TestCigarWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	a, ref := testAligner(t, 50000, 23)
	var reads []seq.Seq
	var results []Result
	rev := 0
	for _, r := range genome.Simulate(ref, 40, genome.ShortReadConfig(24)) {
		if res := a.Align(r.ID, r.Seq); res.Found {
			reads, results = append(reads, r.Seq), append(results, res)
			if res.Rev {
				rev++
			}
		}
	}
	if rev == 0 || rev == len(results) {
		t.Fatalf("%d of %d results on the reverse strand; want both strands", rev, len(results))
	}
	perPass := testing.AllocsPerRun(5, func() {
		for i, r := range reads {
			if _, err := a.Cigar(r, results[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perPass != float64(len(reads)) {
		t.Fatalf("warm Cigar allocates %.0f times over %d calls, want one per call", perPass, len(reads))
	}
}
