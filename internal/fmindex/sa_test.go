package fmindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteSA computes the suffix array of t+sentinel by direct sorting.
func bruteSA(t []byte) []int32 {
	n := len(t) + 1
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	less := func(a, b int32) bool {
		for {
			if a == int32(len(t)) {
				return true // sentinel suffix is smallest
			}
			if b == int32(len(t)) {
				return false
			}
			if t[a] != t[b] {
				return t[a] < t[b]
			}
			a++
			b++
		}
	}
	sort.Slice(sa, func(i, j int) bool { return less(sa[i], sa[j]) })
	return sa
}

func randomText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

func TestBuildSuffixArrayMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		text := randomText(rng, n)
		got := BuildSuffixArray(text)
		want := bruteSA(text)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): sa[%d] = %d, want %d", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestBuildSuffixArrayRepetitiveText(t *testing.T) {
	t.Parallel()
	// Highly repetitive inputs stress the doubling logic.
	texts := [][]byte{
		{},
		{0},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
		{3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0},
	}
	for i, text := range texts {
		got := BuildSuffixArray(text)
		want := bruteSA(text)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d: sa[%d] = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestBuildSuffixArraySortedAcrossKeyWidths checks texts on both sides
// of every initial key width change (5^q <= len+1 for q = 2..8): the
// result must be a permutation whose adjacent suffixes are in order.
func TestBuildSuffixArraySortedAcrossKeyWidths(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	suffixLess := func(text []byte, a, b int32) bool {
		for ; int(a) < len(text) && int(b) < len(text); a, b = a+1, b+1 {
			if text[a] != text[b] {
				return text[a] < text[b]
			}
		}
		return int(a) == len(text) // the sentinel sorts first
	}
	for p := 25; p <= 390625; p *= 5 {
		for _, n := range []int{p - 2, p - 1} {
			for _, text := range [][]byte{randomText(rng, n), repeatText(rng, n)} {
				sa := BuildSuffixArray(text)
				seen := make([]bool, len(sa))
				for i, s := range sa {
					if seen[s] {
						t.Fatalf("len %d: suffix %d listed twice", n, s)
					}
					seen[s] = true
					if i > 0 && !suffixLess(text, sa[i-1], s) {
						t.Fatalf("len %d: sa[%d] = %d sorts after sa[%d] = %d", n, i-1, sa[i-1], i, s)
					}
				}
			}
		}
	}
}

func TestBuildSuffixArrayIsPermutation(t *testing.T) {
	t.Parallel()
	f := func(raw []byte) bool {
		text := make([]byte, len(raw))
		for i, b := range raw {
			text[i] = b & 3
		}
		sa := BuildSuffixArray(text)
		seen := make([]bool, len(sa))
		for _, s := range sa {
			if s < 0 || int(s) >= len(sa) || seen[s] {
				return false
			}
			seen[s] = true
		}
		return sa[0] == int32(len(text)) // sentinel suffix sorts first
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBWTFromSA(t *testing.T) {
	t.Parallel()
	text := []byte{2, 0, 3, 3, 0, 1, 0} // GATTACA
	sa := BuildSuffixArray(text)
	bwt, primary := BWTFromSA(text, sa)
	if primary < 0 || primary >= len(bwt) {
		t.Fatalf("primary = %d", primary)
	}
	// The BWT is a permutation of text plus one sentinel.
	var freq, freqBWT [4]int
	for _, b := range text {
		freq[b]++
	}
	for i, b := range bwt {
		if i != primary {
			freqBWT[b]++
		}
	}
	if freq != freqBWT {
		t.Errorf("BWT symbol frequencies %v != text %v", freqBWT, freq)
	}
}
