package align

import (
	"math/rand"
	"testing"
)

// oracleLocal computes the optimal affine local alignment score with an
// independent formulation: recursion over (i, j, state) with
// memoisation, state 0=H, 1=E (gap consuming ref), 2=F (gap consuming
// read). Slow but obviously correct; used on small inputs.
func oracleLocal(ref, read []byte, sc Scoring) int {
	m, n := len(ref), len(read)
	memo := make([]int, (m+1)*(n+1)*3)
	for i := range memo {
		memo[i] = negInf
	}
	idx := func(i, j, s int) int { return (i*(n+1)+j)*3 + s }
	var rec func(i, j, s int) int
	rec = func(i, j, s int) int {
		if v := memo[idx(i, j, s)]; v != negInf {
			return v
		}
		v := negInf
		switch s {
		case 0: // H: empty alignment, or ends in match/mismatch, or in a gap
			v = 0
			if i > 0 && j > 0 {
				v = max2(v, rec(i-1, j-1, 0)+sc.sub(ref[i-1], read[j-1]))
			}
			if i > 0 {
				v = max2(v, rec(i, j, 1))
			}
			if j > 0 {
				v = max2(v, rec(i, j, 2))
			}
		case 1: // E: gap run consuming ref, ending at i
			if i > 0 {
				v = max2(rec(i-1, j, 0)-sc.GapOpen-sc.GapExtend, rec(i-1, j, 1)-sc.GapExtend)
			}
		case 2: // F: gap run consuming read, ending at j
			if j > 0 {
				v = max2(rec(i, j-1, 0)-sc.GapOpen-sc.GapExtend, rec(i, j-1, 2)-sc.GapExtend)
			}
		}
		memo[idx(i, j, s)] = v
		return v
	}
	best := 0
	for i := 0; i <= m; i++ {
		for j := 0; j <= n; j++ {
			best = max2(best, rec(i, j, 0))
		}
	}
	return best
}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

func TestLocalMatchesOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	sc := BWAMEM()
	for trial := 0; trial < 60; trial++ {
		ref := randomSeq(rng, 1+rng.Intn(25))
		read := randomSeq(rng, 1+rng.Intn(25))
		if trial%3 == 0 && len(ref) > 8 {
			// Embed the read (mutated) in the ref so real alignments exist.
			read = append([]byte(nil), ref[2:min2(len(ref), 2+15)]...)
			if len(read) > 2 {
				read[rng.Intn(len(read))] = byte(rng.Intn(4))
			}
		}
		got := Local(ref, read, sc)
		want := oracleLocal(ref, read, sc)
		if got.Score != want {
			t.Fatalf("trial %d: Local score %d, oracle %d\nref=%v\nread=%v", trial, got.Score, want, ref, read)
		}
		if got.Score > 0 {
			recomputed, err := ScoreCigar(ref, read, got, sc)
			if err != nil {
				t.Fatalf("trial %d: invalid path: %v", trial, err)
			}
			if recomputed != got.Score {
				t.Fatalf("trial %d: path scores %d, reported %d (cigar %s)", trial, recomputed, got.Score, got.Cigar)
			}
		}
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLocalPerfectMatch(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	s := []byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 1}
	r := Local(s, s, sc)
	if r.Score != len(s)*sc.Match {
		t.Errorf("score = %d, want %d", r.Score, len(s)*sc.Match)
	}
	if r.Cigar.String() != "10M" {
		t.Errorf("cigar = %s, want 10M", r.Cigar)
	}
	if r.RefBeg != 0 || r.RefEnd != len(s) || r.ReadBeg != 0 || r.ReadEnd != len(s) {
		t.Errorf("span = ref[%d,%d) read[%d,%d)", r.RefBeg, r.RefEnd, r.ReadBeg, r.ReadEnd)
	}
}

func TestLocalWithDeletion(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	ref := []byte{0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3}
	// Read = ref with ref[6:8] deleted.
	read := append(append([]byte(nil), ref[:6]...), ref[8:]...)
	r := Local(ref, read, sc)
	// Perfect match of 14 bases minus a 2-base deletion (6+2=8 penalty)
	// scores 14-8=6; aligning only the longer exact flank (8 bases)
	// scores 8, so the flank wins under BWA-MEM scoring.
	if r.Score != 8 {
		t.Errorf("score = %d, want 8", r.Score)
	}
	// With a cheaper gap the gapped alignment must win and contain a D.
	cheap := Scoring{Match: 1, Mismatch: 4, GapOpen: 1, GapExtend: 1}
	r = Local(ref, read, cheap)
	if r.Score != 14-1-2*1 {
		t.Errorf("cheap-gap score = %d, want 11", r.Score)
	}
	hasD := false
	for _, op := range r.Cigar {
		if op.Op == OpD && op.Len == 2 {
			hasD = true
		}
	}
	if !hasD {
		t.Errorf("cigar %s lacks the 2D deletion", r.Cigar)
	}
}

func TestLocalWithInsertion(t *testing.T) {
	t.Parallel()
	cheap := Scoring{Match: 1, Mismatch: 4, GapOpen: 1, GapExtend: 1}
	ref := []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	read := append(append(append([]byte(nil), ref[:6]...), 3, 3, 3), ref[6:]...)
	r := Local(ref, read, cheap)
	hasI := false
	for _, op := range r.Cigar {
		if op.Op == OpI && op.Len == 3 {
			hasI = true
		}
	}
	if !hasI {
		t.Errorf("cigar %s lacks the 3I insertion (score %d)", r.Cigar, r.Score)
	}
	if want := 12 - 1 - 3; r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
}

func TestLocalEmptyInputs(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	if r := Local(nil, []byte{1, 2}, sc); r.Score != 0 {
		t.Error("empty ref should score 0")
	}
	if r := Local([]byte{1, 2}, nil, sc); r.Score != 0 {
		t.Error("empty read should score 0")
	}
	if r := Local([]byte{0}, []byte{3}, sc); r.Score != 0 || len(r.Cigar) != 0 {
		t.Error("all-mismatch should give empty result")
	}
}

func TestLocalSymmetry(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	sc := BWAMEM()
	for trial := 0; trial < 30; trial++ {
		a := randomSeq(rng, 5+rng.Intn(40))
		b := randomSeq(rng, 5+rng.Intn(40))
		if Local(a, b, sc).Score != Local(b, a, sc).Score {
			t.Fatalf("trial %d: local alignment score not symmetric", trial)
		}
	}
}

func TestBandedEqualsFullWithWideBand(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	sc := BWAMEM()
	for trial := 0; trial < 30; trial++ {
		ref := randomSeq(rng, 10+rng.Intn(40))
		read := randomSeq(rng, 10+rng.Intn(40))
		full := Local(ref, read, sc)
		banded := LocalBanded(ref, read, sc, len(ref)+len(read))
		if full.Score != banded.Score {
			t.Fatalf("trial %d: banded(wide) %d != full %d", trial, banded.Score, full.Score)
		}
	}
}

func TestBandedNeverExceedsFull(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	sc := BWAMEM()
	for trial := 0; trial < 30; trial++ {
		ref := randomSeq(rng, 20+rng.Intn(40))
		read := randomSeq(rng, 20+rng.Intn(40))
		full := Local(ref, read, sc).Score
		for _, band := range []int{0, 2, 5, 10} {
			b := LocalBanded(ref, read, sc, band)
			if b.Score > full {
				t.Fatalf("banded(%d) score %d exceeds full %d", band, b.Score, full)
			}
			if b.Score > 0 {
				if _, err := ScoreCigar(ref, read, b, sc); err != nil {
					t.Fatalf("banded path invalid: %v", err)
				}
			}
		}
	}
}

func TestBandedFindsNearDiagonalAlignment(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	rng := rand.New(rand.NewSource(5))
	ref := randomSeq(rng, 80)
	read := append([]byte(nil), ref...)
	read[10] = (read[10] + 1) % 4 // one mismatch on the diagonal
	b := LocalBanded(ref, read, sc, 3)
	full := Local(ref, read, sc)
	if b.Score != full.Score {
		t.Errorf("band 3 should capture a diagonal alignment: %d vs %d", b.Score, full.Score)
	}
}

func TestExtendPerfect(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	rng := rand.New(rand.NewSource(6))
	ref := randomSeq(rng, 50)
	score, refEnd, readEnd, _ := Extend(ref, ref, sc, 10, -1)
	if score != 10+50 {
		t.Errorf("score = %d, want 60", score)
	}
	if refEnd != 50 || readEnd != 50 {
		t.Errorf("ends = (%d,%d), want (50,50)", refEnd, readEnd)
	}
}

func TestExtendRejectsGarbage(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	ref := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	read := []byte{3, 3, 3, 3, 3, 3, 3, 3}
	score, refEnd, readEnd, _ := Extend(ref, read, sc, 25, -1)
	if score != 25 || refEnd != 0 || readEnd != 0 {
		t.Errorf("garbage extension gave score %d ends (%d,%d); want 25 (0,0)", score, refEnd, readEnd)
	}
}

func TestExtendPartial(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	rng := rand.New(rand.NewSource(7))
	good := randomSeq(rng, 20)
	ref := append(append([]byte(nil), good...), randomSeq(rng, 20)...)
	read := append(append([]byte(nil), good...), randomSeq(rng, 20)...)
	score, refEnd, readEnd, _ := Extend(ref, read, sc, 0, -1)
	if score < 20 {
		t.Errorf("partial extension score %d, want >= 20", score)
	}
	if refEnd < 20 || readEnd < 20 {
		t.Errorf("extension stopped early: (%d,%d)", refEnd, readEnd)
	}
}

func TestExtendEmpty(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	if s, _, _, _ := Extend(nil, []byte{1}, sc, 7, -1); s != 7 {
		t.Errorf("empty ref extend = %d", s)
	}
}

func TestCigarAccessors(t *testing.T) {
	t.Parallel()
	c := Cigar{{OpM, 10}, {OpD, 2}, {OpM, 5}, {OpI, 3}, {OpM, 1}}
	if c.RefLen() != 18 {
		t.Errorf("RefLen = %d, want 18", c.RefLen())
	}
	if c.ReadLen() != 19 {
		t.Errorf("ReadLen = %d, want 19", c.ReadLen())
	}
	if c.String() != "10M2D5M3I1M" {
		t.Errorf("String = %s", c.String())
	}
}

func TestScoreCigarDetectsCorruptPath(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	ref := []byte{0, 1, 2, 3}
	read := []byte{0, 1, 2, 3}
	r := Local(ref, read, sc)
	r.RefEnd++ // corrupt
	if _, err := ScoreCigar(ref, read, r, sc); err == nil {
		t.Error("corrupt path not detected")
	}
}

func TestLocalScoreBounds(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	sc := BWAMEM()
	for trial := 0; trial < 50; trial++ {
		ref := randomSeq(rng, 1+rng.Intn(60))
		read := randomSeq(rng, 1+rng.Intn(60))
		r := Local(ref, read, sc)
		if r.Score < 0 {
			t.Fatal("negative local score")
		}
		if lim := min2(len(ref), len(read)) * sc.Match; r.Score > lim {
			t.Fatalf("score %d exceeds upper bound %d", r.Score, lim)
		}
	}
}
