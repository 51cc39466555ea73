package fmindex

import (
	"math/rand"
	"testing"
)

// bruteSMEMs computes supermaximal exact matches of r against t by
// direct search: for each start b, find the longest match e(b); keep
// (b, e(b)) if it is not contained in a longer match starting earlier.
func bruteSMEMs(t, r []byte, minLen int) [][2]int {
	emax := make([]int, len(r))
	for b := range r {
		e := b
		for e < len(r) && bruteCount(t, r[b:e+1]) > 0 {
			e++
		}
		emax[b] = e
	}
	var out [][2]int
	best := -1
	for b := range r {
		if emax[b] > b && emax[b] > best {
			if emax[b]-b >= minLen {
				out = append(out, [2]int{b, emax[b]})
			}
			best = emax[b]
		}
	}
	return out
}

func TestFindSMEMsMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		text := randomText(rng, 150+rng.Intn(150))
		bi := NewBi(text)
		// Reads: half sampled from the text with mutations, half random.
		rlen := 20 + rng.Intn(30)
		var r []byte
		if trial%2 == 0 {
			off := rng.Intn(len(text) - rlen)
			r = append([]byte(nil), text[off:off+rlen]...)
			for k := 0; k < 3; k++ {
				r[rng.Intn(rlen)] = byte(rng.Intn(4))
			}
		} else {
			r = randomText(rng, rlen)
		}
		for _, minLen := range []int{1, 5, 10} {
			var st Stats
			got := bi.FindSMEMsWS(new(Workspace), r, minLen, &st)
			want := bruteSMEMs(text, r, minLen)
			if len(got) != len(want) {
				t.Fatalf("trial %d minLen %d: %d SMEMs, want %d\n got=%v\n want=%v",
					trial, minLen, len(got), len(want), smemPairs(got), want)
			}
			gotSet := map[[2]int]bool{}
			for _, s := range got {
				gotSet[[2]int{s.ReadBeg, s.ReadEnd}] = true
			}
			for _, w := range want {
				if !gotSet[w] {
					t.Fatalf("trial %d: SMEM %v missing (got %v)", trial, w, smemPairs(got))
				}
			}
		}
	}
}

func smemPairs(s []SMEM) [][2]int {
	out := make([][2]int, len(s))
	for i, m := range s {
		out[i] = [2]int{m.ReadBeg, m.ReadEnd}
	}
	return out
}

func TestFindSMEMsIntervalSizes(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	text := randomText(rng, 400)
	bi := NewBi(text)
	off := 100
	r := text[off : off+40]
	smems := bi.FindSMEMsWS(new(Workspace), r, 10, nil)
	if len(smems) == 0 {
		t.Fatal("exact substring yielded no SMEMs")
	}
	for _, s := range smems {
		if got, want := s.Iv.Size(), bruteCount(text, r[s.ReadBeg:s.ReadEnd]); got != want {
			t.Errorf("SMEM [%d,%d): interval size %d, want %d", s.ReadBeg, s.ReadEnd, got, want)
		}
	}
}

func TestBiExtendConsistency(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		text := randomText(rng, 200+rng.Intn(200))
		bi := NewBi(text)
		for q := 0; q < 25; q++ {
			p := randomText(rng, 1+rng.Intn(10))
			want := bruteCount(text, p)
			// Build the interval via left extensions, then via right
			// extensions.
			iv := bi.Single(p[len(p)-1])
			for i := len(p) - 2; i >= 0 && !iv.Empty(); i-- {
				iv = bi.ExtendLeft(iv, p[i], nil)
			}
			if got := iv.Size(); got != want {
				t.Fatalf("left-extension count of %v = %d, want %d", p, got, want)
			}
			iv = bi.Single(p[0])
			for i := 1; i < len(p) && !iv.Empty(); i++ {
				iv = bi.ExtendRight(iv, p[i], nil)
			}
			if got := iv.Size(); got != want {
				t.Fatalf("right-extension count of %v = %d, want %d", p, got, want)
			}
			if iv.Fwd.Size() != iv.Rev.Size() {
				t.Fatalf("bi-interval sizes diverge: %d vs %d", iv.Fwd.Size(), iv.Rev.Size())
			}
		}
	}
}

func TestBiMixedExtensionOrder(t *testing.T) {
	t.Parallel()
	// Extending a pattern in any interleaving of left/right steps must
	// give the same interval size.
	rng := rand.New(rand.NewSource(9))
	text := randomText(rng, 300)
	bi := NewBi(text)
	for trial := 0; trial < 30; trial++ {
		p := randomText(rng, 2+rng.Intn(8))
		want := bruteCount(text, p)
		// Random split point: extend left part leftwards, right part rightwards.
		mid := rng.Intn(len(p))
		iv := bi.Single(p[mid])
		lo, hi := mid, mid+1
		for !iv.Empty() && (lo > 0 || hi < len(p)) {
			if lo > 0 && (hi == len(p) || rng.Intn(2) == 0) {
				lo--
				iv = bi.ExtendLeft(iv, p[lo], nil)
			} else {
				iv = bi.ExtendRight(iv, p[hi], nil)
				hi++
			}
		}
		if got := iv.Size(); got != want && want != 0 {
			t.Fatalf("mixed extension of %v = %d, want %d", p, got, want)
		}
	}
}

func TestSeederFindsTrueLocation(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(10))
	text := randomText(rng, 2000)
	sd := NewSeeder(text)
	for trial := 0; trial < 20; trial++ {
		off := rng.Intn(len(text) - 60)
		r := append([]byte(nil), text[off:off+60]...)
		var st Stats
		seeds := sd.Seeds(r, 19, 0, 0, &st)
		found := false
		for _, s := range seeds {
			if !s.Rev && s.RefPos == off+s.ReadBeg {
				found = true
			}
			if s.RefPos < 0 || s.RefPos+s.Len() > len(text) {
				t.Fatalf("seed out of range: %+v", s)
			}
		}
		if !found {
			t.Fatalf("trial %d: no seed at true position %d: %+v", trial, off, seeds)
		}
		if st.OccAccesses == 0 || st.SALookups == 0 {
			t.Fatal("seeding charged no memory accesses")
		}
	}
}

func TestSeederReverseStrand(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	text := randomText(rng, 2000)
	sd := NewSeeder(text)
	for trial := 0; trial < 10; trial++ {
		off := rng.Intn(len(text) - 60)
		frag := append([]byte(nil), text[off:off+60]...)
		// Reverse complement the fragment: seeds should come back with
		// Rev=true at the right forward position.
		rc := make([]byte, len(frag))
		for i, b := range frag {
			rc[len(frag)-1-i] = 3 - b
		}
		seeds := sd.Seeds(rc, 19, 0, 0, nil)
		found := false
		for _, s := range seeds {
			if s.Rev {
				// Read interval [ReadBeg, ReadEnd) of rc maps to reference
				// [RefPos, RefPos+len). Verify the bases actually match.
				refFrag := text[s.RefPos : s.RefPos+s.Len()]
				readFrag := rc[s.ReadBeg:s.ReadEnd]
				ok := true
				for i := range refFrag {
					if refFrag[i] != 3-readFrag[len(readFrag)-1-i] {
						ok = false
						break
					}
				}
				if ok && s.RefPos == off+(len(rc)-s.ReadEnd) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("trial %d: reverse strand seed not found at %d", trial, off)
		}
	}
}

func TestSeedsMaxOcc(t *testing.T) {
	t.Parallel()
	// A repetitive text generates many occurrences; maxOcc must cap them.
	unit := []byte{0, 1, 2, 3, 0, 0, 1, 2, 3, 1, 2, 0, 3, 2, 1, 0, 2, 3, 0, 1, 3, 3, 2, 1}
	var text []byte
	for i := 0; i < 40; i++ {
		text = append(text, unit...)
	}
	sd := NewSeeder(text)
	r := append([]byte(nil), unit...)
	seeds := sd.Seeds(r, 10, 3, 0, nil)
	perSmem := map[[2]int]int{}
	for _, s := range seeds {
		perSmem[[2]int{s.ReadBeg, s.ReadEnd}]++
	}
	for k, v := range perSmem {
		if v > 3 {
			t.Fatalf("SMEM %v located %d occurrences, cap was 3", k, v)
		}
	}
}
