package align

import (
	"math/rand"
	"strings"
	"testing"
)

// randSeqPair draws ref/read with a planted homology so extensions
// both succeed (long matching runs) and fail (mutated tails) across
// trials.
func randSeqPair(rng *rand.Rand, maxLen int) (ref, read []byte) {
	const bases = "ACGT"
	m := 1 + rng.Intn(maxLen)
	n := 1 + rng.Intn(maxLen)
	ref = make([]byte, m)
	for i := range ref {
		ref[i] = bases[rng.Intn(4)]
	}
	read = make([]byte, n)
	switch rng.Intn(3) {
	case 0: // unrelated
		for i := range read {
			read[i] = bases[rng.Intn(4)]
		}
	case 1: // mutated copy with indels
		j := 0
		for i := 0; i < n; i++ {
			switch {
			case j < m && rng.Intn(10) > 0:
				read[i] = ref[j]
				j++
			case rng.Intn(2) == 0:
				read[i] = bases[rng.Intn(4)] // mismatch/insertion
			default:
				if j < m {
					j++ // deletion
				}
				read[i] = bases[rng.Intn(4)]
			}
		}
	default: // exact prefix copy then noise
		cut := rng.Intn(n + 1)
		for i := 0; i < n; i++ {
			if i < cut && i < m {
				read[i] = ref[i]
			} else {
				read[i] = bases[rng.Intn(4)]
			}
		}
	}
	return ref, read
}

// codes maps an ACGT string to the 2-bit base codes the pipeline
// extends, so a test drives ExtendWithScratch's query-profile path.
func codes(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = byte(strings.IndexByte("ACGT", b))
	}
	return out
}

// homologousCodes draws a 2-bit reference window and a read copying its
// prefix with one substitution every div bases.
func homologousCodes(rng *rand.Rand, refLen, readLen, div int) (ref, read []byte) {
	ref = make([]byte, refLen)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	read = make([]byte, readLen)
	copy(read, ref)
	for i := div; i < readLen; i += div {
		read[i] = (read[i] + 1 + byte(rng.Intn(3))) & 3
	}
	return ref, read
}

// extendRows is ExtendWithScratch, or with int32Rows set the same
// extension in int32 rows whatever narrow says, so tests reach both
// widths on small inputs.
func extendRows(s *Scratch, int32Rows bool, ref, read []byte, sc Scoring, initScore, zdrop, w int) (score, refEnd, readEnd, rows int) {
	if !int32Rows || len(ref) == 0 || len(read) == 0 {
		return ExtendWithScratch(s, ref, read, sc, initScore, zdrop, w)
	}
	s.setScoring(sc)
	return extend(s, &s.rowH, &s.rowE, &s.prof, ref, read, sc, initScore, zdrop, w)
}

func randScoring(rng *rand.Rand) Scoring {
	return Scoring{
		Match:     1 + rng.Intn(5),
		Mismatch:  rng.Intn(7),
		GapOpen:   rng.Intn(8),
		GapExtend: rng.Intn(4),
	}
}

// TestExtendMatchesReference drives the extension kernel against the
// full-row oracle on random scoring schemes, z-drop thresholds, and
// planted-homology sequence pairs, each as ACGT letters (the per-row
// substitution fill) and as 2-bit codes (the query profile). Every
// trial runs unbanded against the unbanded oracle and at a drawn band
// narrow enough to bind against the banded oracle with the retry
// composed over it, in the int16 rows ExtendWithScratch picks for
// these sizes and in int32 rows. All four outputs (score, refEnd,
// readEnd, rows) must be byte-identical — the rows value feeds the EU cost model, so
// even the termination row must be preserved.
func TestExtendMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	var s Scratch
	for trial := 0; trial < trials; trial++ {
		ref, read := randSeqPair(rng, 160)
		sc := randScoring(rng)
		initScore := rng.Intn(60)
		zdrop := -1
		if rng.Intn(4) > 0 {
			zdrop = rng.Intn(80)
		}
		for _, w := range []int{-1, rng.Intn(40)} {
			for _, p := range [][2][]byte{{ref, read}, {codes(ref), codes(read)}} {
				rs, ri, rj, rrows, _ := ExtendBandReference(p[0], p[1], sc, initScore, zdrop, w)
				for _, int32Rows := range []bool{false, true} {
					ws, wi, wj, wrows := extendRows(&s, int32Rows, p[0], p[1], sc, initScore, zdrop, w)
					if ws != rs || wi != ri || wj != rj || wrows != rrows {
						t.Fatalf("trial %d: Extend mismatch (sc=%+v init=%d zdrop=%d w=%d |ref|=%d |read|=%d 2-bit=%v int32 rows=%v):\n kernel    = (%d,%d,%d,%d)\n reference = (%d,%d,%d,%d)",
							trial, sc, initScore, zdrop, w, len(ref), len(read), p[0][0] < 4, int32Rows, ws, wi, wj, wrows, rs, ri, rj, rrows)
					}
				}
			}
		}
	}
}

// TestExtendAdversarial pins the corner cases the band-shrinking proof
// leans on: zero-length inputs, zdrop=0, huge zdrop, all-mismatch
// pairs (immediate z-drop), perfect matches (the window hugs the
// diagonal), and long-read/short-ref shape mismatches where the F-spill
// must carry insertions past the window. The banded cases add a zero
// band, an F-spill stopped at the band's edge, and a band that leaves
// the read before the reference ends, with and without z-drop.
func TestExtendAdversarial(t *testing.T) {
	t.Parallel()
	sc := BWAMEM()
	rep := func(b byte, n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = b
		}
		return s
	}
	cases := []struct {
		name        string
		ref, read   []byte
		init, zd, w int
	}{
		{"empty-ref", nil, []byte("ACGT"), 10, 100, -1},
		{"empty-read", []byte("ACGT"), nil, 10, 100, -1},
		{"perfect", rep('A', 200), rep('A', 200), 0, 100, -1},
		{"all-mismatch", rep('A', 200), rep('C', 200), 50, 0, -1},
		{"all-mismatch-zd10", rep('A', 200), rep('C', 200), 50, 10, -1},
		{"long-read", rep('A', 8), rep('A', 300), 20, 50, -1},
		{"long-ref", rep('A', 300), rep('A', 8), 20, 50, -1},
		{"zdrop-zero-perfect", rep('G', 64), rep('G', 64), 0, 0, -1},
		{"init-negative", []byte("ACGTACGT"), []byte("ACGTACGT"), -5, 30, -1},
		{"band-zero-perfect", rep('A', 200), rep('A', 200), 0, 100, 0},
		{"band-zero-no-zdrop", rep('T', 40), rep('T', 60), 5, -1, 0},
		{"band-long-read", rep('A', 8), rep('A', 300), 20, 50, 4},
		{"band-leaves-read", rep('A', 300), rep('A', 8), 20, 50, 2},
		{"band-leaves-read-no-zdrop", rep('A', 300), rep('A', 8), 20, -1, 2},
		{"band-all-mismatch", rep('A', 200), rep('C', 200), 50, 10, 3},
		{"band-wider-than-pair", rep('C', 50), rep('C', 40), 7, 20, 100},
	}
	var s Scratch
	for _, tc := range cases {
		ws, wi, wj, wrows := ExtendWithScratch(&s, tc.ref, tc.read, sc, tc.init, tc.zd, tc.w)
		rs, ri, rj, rrows, _ := ExtendBandReference(tc.ref, tc.read, sc, tc.init, tc.zd, tc.w)
		if ws != rs || wi != ri || wj != rj || wrows != rrows {
			t.Errorf("%s: kernel=(%d,%d,%d,%d) reference=(%d,%d,%d,%d)",
				tc.name, ws, wi, wj, wrows, rs, ri, rj, rrows)
		}
	}
}

// insertionFlank builds a 2-bit flank whose read carries two
// insertions, insA then insB bases, between three matching segments of
// seg bases: the alignment's diagonal offset steps to insA, then to
// insA+insB.
func insertionFlank(rng *rand.Rand, seg, insA, insB int) (ref, read []byte) {
	base := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(4))
		}
		return b
	}
	ref = base(3 * seg)
	read = append(read, ref[:seg]...)
	read = append(read, base(insA)...)
	read = append(read, ref[seg:2*seg]...)
	read = append(read, base(insB)...)
	read = append(read, ref[2*seg:]...)
	return ref, read
}

// TestExtendBandRetry pins BWA-MEM's retry rule on a flank built to
// need it: with z-drop off and w = 100, the read's 80 bp insertion
// moves the best cells to offset 80 (>= 3/4 of the band), and its
// 40 bp insertion moves the rest of the alignment to offset 120,
// outside the band. The kernel must rerun at 2w and return that pass,
// which scores higher than the band alone.
func TestExtendBandRetry(t *testing.T) {
	t.Parallel()
	const w = 100
	ref, read := insertionFlank(rand.New(rand.NewSource(9)), 200, 80, 40)
	sc := BWAMEM()
	narrow, _, _, _, off := ExtendReference(ref, read, sc, 20, -1, w)
	if off < w>>1+w>>2 {
		t.Fatalf("first pass max_off = %d, want >= %d so the retry fires", off, w>>1+w>>2)
	}
	wide, wi, wj, wrows, _ := ExtendReference(ref, read, sc, 20, -1, 2*w)
	if wide <= narrow {
		t.Fatalf("2w pass scores %d, band-w pass %d; want the wider band to score higher", wide, narrow)
	}
	var s Scratch
	gs, gi, gj, grows := ExtendWithScratch(&s, ref, read, sc, 20, -1, w)
	if gs != wide || gi != wi || gj != wj || grows != wrows {
		t.Fatalf("kernel = (%d,%d,%d,%d), want the 2w pass (%d,%d,%d,%d)", gs, gi, gj, grows, wide, wi, wj, wrows)
	}
}

// TestLocalScratchMatches checks the scratch-backed (dirty-memory)
// local DP against the original allocating implementation, reusing one
// Scratch across wildly different sizes so stale traceback bytes would
// be caught.
func TestLocalScratchMatches(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	trials := 600
	if testing.Short() {
		trials = 150
	}
	var s Scratch
	for trial := 0; trial < trials; trial++ {
		ref, read := randSeqPair(rng, 90)
		sc := randScoring(rng)
		band := -1
		if rng.Intn(2) == 0 {
			band = rng.Intn(30)
		}
		got := localBandedWS(&s, ref, read, sc, band)
		want := localBandedReference(ref, read, sc, band)
		if got.Score != want.Score || got.RefBeg != want.RefBeg || got.RefEnd != want.RefEnd ||
			got.ReadBeg != want.ReadBeg || got.ReadEnd != want.ReadEnd || got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("trial %d (band=%d sc=%+v): scratch=%+v reference=%+v", trial, band, sc, got, want)
		}
		if got.Score > 0 {
			if sum, err := ScoreCigar(ref, read, got, sc); err != nil || sum != got.Score {
				t.Fatalf("trial %d: scratch cigar invalid: sum=%d err=%v res=%+v", trial, sum, err, got)
			}
		}
	}
}

// TestExtendScratchZeroAlloc asserts the steady-state contract the
// pipeline relies on: a warm Scratch performs no heap allocations per
// extension at the pipeline's band, cycled across a short-read flank, a
// long-read flank (both 2-bit, the query-profile path), an ACGT-letter
// pair (the per-row substitution fill), a flank whose first pass
// triggers the 2w retry, flanks whose windows are shorter than one
// 8-column vector or end in a partial one (the scalar tail), and a
// flank too long for int16 rows. The 2-bit int16 flanks then run each
// int16 pass on its own, the fused one (on AVX2 hosts) and extendPass's
// Go row loop, and neither may allocate either.
func TestExtendScratchZeroAlloc(t *testing.T) {
	const w = 100
	rng := rand.New(rand.NewSource(5))
	short, shortRead := homologousCodes(rng, 120, 101, 25)
	long, longRead := homologousCodes(rng, 1008, 1000, 11)
	ascii, asciiRead := randSeqPair(rng, 128)
	retry, retryRead := insertionFlank(rng, 200, 80, 40)
	if _, _, _, _, off := ExtendReference(retry, retryRead, BWAMEM(), 20, 100, w); off < w>>1+w>>2 {
		t.Fatalf("insertion flank's max_off = %d; it must trigger the retry", off)
	}
	tiny, tinyRead := homologousCodes(rng, 9, 5, 3)
	odd, oddRead := homologousCodes(rng, 45, 37, 6)
	wide, wideRead := homologousCodes(rng, 1308, 1300, 11)
	if narrow(len(wide), len(wideRead), BWAMEM(), 20, 100) {
		t.Fatal("the 1,300 bp flank passes narrow; it must take int32 rows")
	}
	pairs := [][2][]byte{{short, shortRead}, {long, longRead}, {ascii, asciiRead}, {retry, retryRead},
		{tiny, tinyRead}, {odd, oddRead}, {wide, wideRead}}
	sc := BWAMEM()
	var s Scratch
	for _, p := range pairs { // warm
		ExtendWithScratch(&s, p[0], p[1], sc, 20, 100, w)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range pairs {
			ExtendWithScratch(&s, p[0], p[1], sc, 20, 100, w)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtendWithScratch allocates %v per run with warm scratch, want 0", allocs)
	}
	int16Pairs := [][2][]byte{{short, shortRead}, {long, longRead}, {retry, retryRead}, {tiny, tinyRead}, {odd, oddRead}}
	for _, fused := range []bool{false, true} {
		if fused && !useAVX2 {
			continue
		}
		var pass *pass16
		if fused {
			pass = &s.pass
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, p := range int16Pairs {
				n := len(p[1])
				h, e, prof := s.rowH16[:n+1], s.rowE16[:n+1], s.prof16[:4*n]
				buildProfile(prof, p[0], p[1], &s.sub)
				extendPass(h, e, prof, p[0], p[1], sc, true, pass, 20, 100, w)
			}
		})
		if allocs != 0 {
			t.Fatalf("int16 pass (fused %v) allocates %v per run with warm rows, want 0", fused, allocs)
		}
	}
}

// TestExtendScratchScoringCache alternates two scorings on one Scratch,
// whose substitution table and fused-pass constants are kept per
// Scoring: each call must return what a fresh Scratch returns.
func TestExtendScratchScoringCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref, read := homologousCodes(rng, 208, 200, 15)
	scorings := []Scoring{BWAMEM(), {Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2}}
	var s Scratch
	for k := range 6 {
		sc := scorings[k%2]
		var fresh Scratch
		ws, wi, wj, wrows := ExtendWithScratch(&s, ref, read, sc, 20, 100, 100)
		fs, fi, fj, frows := ExtendWithScratch(&fresh, ref, read, sc, 20, 100, 100)
		if ws != fs || wi != fi || wj != fj || wrows != frows {
			t.Fatalf("call %d under %+v: reused Scratch (%d,%d,%d,%d), fresh Scratch (%d,%d,%d,%d)",
				k, sc, ws, wi, wj, wrows, fs, fi, fj, frows)
		}
	}
}

// TestExtendHeadroom pins the int32 headroom bound: every extension a
// read from ReadFASTQ (at most 2^26 bases) can produce under BWAMEM
// passes, a query twice that long does not, and ExtendWithScratch
// panics rather than compute rows that would overflow.
func TestExtendHeadroom(t *testing.T) {
	const maxRead = 1 << 26
	if !headroom(maxRead+8, maxRead, BWAMEM(), maxRead) {
		t.Fatalf("a %d-base read under BWAMEM fails the headroom bound", maxRead)
	}
	if headroom(2*maxRead+8, 2*maxRead, BWAMEM(), 0) {
		t.Fatalf("a %d-base read under BWAMEM passes the headroom bound", 2*maxRead)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExtendWithScratch with a 2^28 match score did not panic")
		}
	}()
	var s Scratch
	ExtendWithScratch(&s, codes([]byte("ACGT")), codes([]byte("ACGT")), Scoring{Match: 1 << 28, Mismatch: 4, GapOpen: 6, GapExtend: 1}, 0, 100, 100)
}

// TestExtendWidthBoundary runs extensions at the largest m+n narrow
// admits and one past it, under BWAMEM and a wider scheme, with the
// z-drop on (narrow's separation bound binds) and off (the int16 range
// binds), and from a negative anchor (the separation bound binds far
// below the range); two cases meet a bound with equality, so an
// off-by-one comparison fails them. The first must take int16 rows
// and the second int32 rows, and both must equal the banded oracle on a homologous
// flank and an unrelated one, whose scores fall furthest toward the
// int16 floor.
func TestExtendWidthBoundary(t *testing.T) {
	t.Parallel()
	wider := Scoring{Match: 2, Mismatch: 8, GapOpen: 12, GapExtend: 2}
	cases := []struct {
		name                    string
		sc                      Scoring
		initScore, zdrop, bound int
	}{
		{"bwamem/zdrop", BWAMEM(), 19, 100, 2318}, // 100-19+2329*7 = 2^14
		{"bwamem/no-zdrop", BWAMEM(), 20, -1, 2330},
		{"bwamem/negative-anchor", BWAMEM(), -8000, 100, 1173},
		{"wider/zdrop", wider, 20, 100, 1154},
		{"wider/no-zdrop", wider, 20, -1, 1160},
		{"c3/no-zdrop", Scoring{Match: 1, Mismatch: 3, GapOpen: 2, GapExtend: 1}, 20, -1, 5451}, // 2^14+5461*3 = 32767
	}
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for _, c := range cases {
		for _, mn := range []int{c.bound, c.bound + 1} {
			m := mn/2 + 4
			n := mn - m
			if got, want := narrow(m, n, c.sc, c.initScore, c.zdrop), mn == c.bound; got != want {
				t.Fatalf("%s: narrow(%d, %d) = %v, want %v", c.name, m, n, got, want)
			}
			homRef, homRead := homologousCodes(rng, m, n, 7)
			unrelated, unrelatedRead := homologousCodes(rng, m, n, 1)
			for _, p := range [][2][]byte{{homRef, homRead}, {unrelated, unrelatedRead}} {
				for _, w := range []int{100, -1} {
					ws, wi, wj, wrows := ExtendWithScratch(&s, p[0], p[1], c.sc, c.initScore, c.zdrop, w)
					rs, ri, rj, rrows, _ := ExtendBandReference(p[0], p[1], c.sc, c.initScore, c.zdrop, w)
					if ws != rs || wi != ri || wj != rj || wrows != rrows {
						t.Fatalf("%s m+n=%d w=%d: kernel = (%d,%d,%d,%d), reference = (%d,%d,%d,%d)",
							c.name, mn, w, ws, wi, wj, wrows, rs, ri, rj, rrows)
					}
				}
			}
		}
	}
}

// TestFirstIndexTies pins the Go row loop's argmax scan on rows with
// tied maxima: the first column holding the value wins, in int16 and
// int32 rows, and a value the row lacks returns len(h). The fused
// pass's vector scan is held to the same order by FuzzExtendPassFused.
func TestFirstIndexTies(t *testing.T) {
	t.Parallel()
	const top = 7
	for n := 1; n <= 70; n++ {
		h16, h32 := make([]int16, n), make([]int32, n)
		for first := 0; first < n; first++ {
			for k := range h16 {
				h16[k] = int16(k%5) - 3
			}
			for _, k := range []int{first, first + 1, first + 15, first + 16, n - 1} {
				if k < n {
					h16[k] = top
				}
			}
			for k, x := range h16 {
				h32[k] = int32(x)
			}
			if got := firstIndex(h16, top); got != first {
				t.Fatalf("int16 n=%d: firstIndex = %d, want %d", n, got, first)
			}
			if got := firstIndex(h32, top); got != first {
				t.Fatalf("int32 n=%d: firstIndex = %d, want %d", n, got, first)
			}
		}
		if got := firstIndex(h16, top+1); got != n {
			t.Fatalf("int16 n=%d: firstIndex of an absent value = %d, want %d", n, got, n)
		}
	}
}

// TestLocalBandedScratchZeroAlloc asserts the same for the banded
// local kernel (the Cigar is built inside the scratch).
func TestLocalBandedScratchZeroAlloc(t *testing.T) {
	ref, read := randSeqPair(rand.New(rand.NewSource(6)), 128)
	sc := BWAMEM()
	var s Scratch
	localBandedWS(&s, ref, read, sc, 16) // warm
	allocs := testing.AllocsPerRun(100, func() {
		localBandedWS(&s, ref, read, sc, 16)
	})
	if allocs != 0 {
		t.Fatalf("localBandedWS allocates %v per run with warm scratch, want 0", allocs)
	}
}
