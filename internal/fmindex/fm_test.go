package fmindex

import (
	"math/rand"
	"testing"
)

// bruteCount counts occurrences of p in t by direct scanning.
func bruteCount(t, p []byte) int {
	if len(p) == 0 {
		return len(t) + 1
	}
	n := 0
outer:
	for i := 0; i+len(p) <= len(t); i++ {
		for j := range p {
			if t[i+j] != p[j] {
				continue outer
			}
		}
		n++
	}
	return n
}

// brutePositions lists occurrence positions of p in t.
func brutePositions(t, p []byte) []int {
	var out []int
outer:
	for i := 0; i+len(p) <= len(t); i++ {
		for j := range p {
			if t[i+j] != p[j] {
				continue outer
			}
		}
		out = append(out, i)
	}
	return out
}

func TestCountMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		text := randomText(rng, 300+rng.Intn(300))
		idx := New(text)
		if err := idx.Validate(); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			plen := 1 + rng.Intn(12)
			var p []byte
			if rng.Intn(2) == 0 && plen < len(text) {
				// Sample a pattern from the text so hits exist.
				off := rng.Intn(len(text) - plen)
				p = text[off : off+plen]
			} else {
				p = randomText(rng, plen)
			}
			var st Stats
			got := idx.Count(p, &st)
			want := bruteCount(text, p)
			if got != want {
				t.Fatalf("trial %d: Count(%v) = %d, want %d", trial, p, got, want)
			}
			if want > 0 && st.OccAccesses == 0 {
				t.Fatal("Count charged no occ accesses")
			}
		}
	}
}

func TestOccConsistency(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	text := randomText(rng, 1000)
	idx := New(text)
	// Occ must be monotone and sum to i at every prefix (excluding the
	// sentinel position).
	for i := 0; i <= idx.size(); i += 37 {
		total := 0
		for a := byte(0); a < 4; a++ {
			total += idx.occRaw(a, i)
		}
		want := i
		if idx.primary < i {
			want--
		}
		if total != want {
			t.Fatalf("Occ totals at %d = %d, want %d", i, total, want)
		}
	}
}

func TestLocateMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		text := randomText(rng, 400)
		idx := New(text)
		for q := 0; q < 20; q++ {
			plen := 2 + rng.Intn(8)
			off := rng.Intn(len(text) - plen)
			p := text[off : off+plen]
			iv := idx.Full()
			for i := len(p) - 1; i >= 0; i-- {
				iv = idx.Extend(iv, p[i], nil)
			}
			var st Stats
			got := idx.LocateAll(iv, 0, &st)
			want := brutePositions(text, p)
			if len(got) != len(want) {
				t.Fatalf("locate count %d != %d", len(got), len(want))
			}
			gotSet := map[int]bool{}
			for _, g := range got {
				gotSet[g] = true
			}
			for _, w := range want {
				if !gotSet[w] {
					t.Fatalf("position %d missing from locate results %v", w, got)
				}
			}
			if len(got) > 0 && st.SALookups != len(got) {
				t.Errorf("SALookups = %d, want %d", st.SALookups, len(got))
			}
		}
	}
}

func TestLocateAllCap(t *testing.T) {
	t.Parallel()
	text := make([]byte, 200) // all A: pattern AA occurs 199 times
	idx := New(text)
	iv := idx.Full()
	iv = idx.Extend(iv, 0, nil)
	iv = idx.Extend(iv, 0, nil)
	got := idx.LocateAll(iv, 5, nil)
	if len(got) != 5 {
		t.Fatalf("capped locate returned %d positions", len(got))
	}
}

func TestExtendEmptyInterval(t *testing.T) {
	t.Parallel()
	idx := New([]byte{0, 1, 2, 3})
	iv := idx.Extend(Interval{2, 2}, 1, nil)
	if !iv.Empty() {
		t.Fatalf("extending empty interval gave %+v", iv)
	}
}

func TestStatsAdd(t *testing.T) {
	t.Parallel()
	a := Stats{OccAccesses: 1, LFSteps: 2, SALookups: 3}
	b := Stats{OccAccesses: 10, LFSteps: 20, SALookups: 30}
	a.Add(b)
	if a != (Stats{11, 22, 33}) {
		t.Fatalf("Add gave %+v", a)
	}
}

func TestOccIntervalBoundaries(t *testing.T) {
	t.Parallel()
	// Text straddling multiple checkpoint blocks with a biased
	// composition catches block-mask bugs.
	rng := rand.New(rand.NewSource(5))
	text := make([]byte, 5*OccInterval+17)
	for i := range text {
		text[i] = byte(rng.Intn(4))
	}
	idx := New(text)
	bwt := decodeBWT(idx)
	counts := make([]int, 4)
	for i := 0; i < idx.size(); i++ {
		for a := byte(0); a < 4; a++ {
			if got := idx.occRaw(a, i); got != counts[a] {
				t.Fatalf("occ(%d,%d) = %d, want %d", a, i, got, counts[a])
			}
		}
		if i != idx.primary {
			counts[bwt[i]]++
		}
	}
}

// decodeBWT unpacks x's BWT from its interleaved blocks, one symbol
// per row. The sentinel row (x.primary) is stored as 0, so counters
// must skip it.
func decodeBWT(x *Index) []byte {
	out := make([]byte, x.size())
	for i := range out {
		out[i] = byte(x.blocks[i/basesPerWord].word>>uint((i%basesPerWord)*2)) & 3
	}
	return out
}

// naiveOcc is the brute-force rank oracle: occurrences of a in
// bwt[0:i), sentinel row excluded, with i clamped to [0, len(bwt)].
func naiveOcc(bwt []byte, primary int, a byte, i int) int {
	n := 0
	for j := 0; j < i && j < len(bwt); j++ {
		if j != primary && bwt[j] == a {
			n++
		}
	}
	return n
}
