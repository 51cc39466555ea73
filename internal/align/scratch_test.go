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

func randScoring(rng *rand.Rand) Scoring {
	return Scoring{
		Match:     1 + rng.Intn(5),
		Mismatch:  rng.Intn(7),
		GapOpen:   rng.Intn(8),
		GapExtend: rng.Intn(4),
	}
}

// TestExtendMatchesReference drives the shrinking-band extension
// against the original full-row kernel on random scoring schemes,
// z-drop thresholds, and planted-homology sequence pairs, each as ACGT
// letters (the per-row substitution fill) and as 2-bit codes (the
// query profile). All four outputs (score, refEnd, readEnd, rows) must
// be byte-identical — the rows value feeds the EU cost model, so even
// the termination row must be preserved.
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
		for _, p := range [][2][]byte{{ref, read}, {codes(ref), codes(read)}} {
			ws, wi, wj, wrows := ExtendWithScratch(&s, p[0], p[1], sc, initScore, zdrop)
			rs, ri, rj, rrows := ExtendReference(p[0], p[1], sc, initScore, zdrop)
			if ws != rs || wi != ri || wj != rj || wrows != rrows {
				t.Fatalf("trial %d: Extend mismatch (sc=%+v init=%d zdrop=%d |ref|=%d |read|=%d 2-bit=%v):\n banded    = (%d,%d,%d,%d)\n reference = (%d,%d,%d,%d)",
					trial, sc, initScore, zdrop, len(ref), len(read), p[0][0] < 4, ws, wi, wj, wrows, rs, ri, rj, rrows)
			}
		}
	}
}

// TestExtendAdversarial pins the corner cases the band-shrinking proof
// leans on: zero-length inputs, zdrop=0, huge zdrop, all-mismatch
// pairs (immediate z-drop), perfect matches (band hugs the diagonal),
// and long-read/short-ref shape mismatches where the F-spill must
// carry insertions past the window.
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
		name      string
		ref, read []byte
		init, zd  int
	}{
		{"empty-ref", nil, []byte("ACGT"), 10, 100},
		{"empty-read", []byte("ACGT"), nil, 10, 100},
		{"perfect", rep('A', 200), rep('A', 200), 0, 100},
		{"all-mismatch", rep('A', 200), rep('C', 200), 50, 0},
		{"all-mismatch-zd10", rep('A', 200), rep('C', 200), 50, 10},
		{"long-read", rep('A', 8), rep('A', 300), 20, 50},
		{"long-ref", rep('A', 300), rep('A', 8), 20, 50},
		{"zdrop-zero-perfect", rep('G', 64), rep('G', 64), 0, 0},
		{"init-negative", []byte("ACGTACGT"), []byte("ACGTACGT"), -5, 30},
	}
	var s Scratch
	for _, tc := range cases {
		ws, wi, wj, wrows := ExtendWithScratch(&s, tc.ref, tc.read, sc, tc.init, tc.zd)
		rs, ri, rj, rrows := ExtendReference(tc.ref, tc.read, sc, tc.init, tc.zd)
		if ws != rs || wi != ri || wj != rj || wrows != rrows {
			t.Errorf("%s: banded=(%d,%d,%d,%d) reference=(%d,%d,%d,%d)",
				tc.name, ws, wi, wj, wrows, rs, ri, rj, rrows)
		}
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
// extension, cycled across a short-read flank, a long-read flank (both
// 2-bit, the query-profile path) and an ACGT-letter pair (the per-row
// substitution fill).
func TestExtendScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	short, shortRead := homologousCodes(rng, 120, 101, 25)
	long, longRead := homologousCodes(rng, 1008, 1000, 11)
	ascii, asciiRead := randSeqPair(rng, 128)
	pairs := [][2][]byte{{short, shortRead}, {long, longRead}, {ascii, asciiRead}}
	sc := BWAMEM()
	var s Scratch
	for _, p := range pairs { // warm
		ExtendWithScratch(&s, p[0], p[1], sc, 20, 100)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range pairs {
			ExtendWithScratch(&s, p[0], p[1], sc, 20, 100)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtendWithScratch allocates %v per run with warm scratch, want 0", allocs)
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
