package hashindex

import (
	"math/rand"
	"testing"
)

func randomText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

func bruteKmerPositions(t, kmer []byte) []int {
	var out []int
outer:
	for i := 0; i+len(kmer) <= len(t); i++ {
		for j := range kmer {
			if t[i+j] != kmer[j] {
				continue outer
			}
		}
		out = append(out, i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]byte{0, 1}, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New([]byte{0, 1}, MaxK+1); err == nil {
		t.Error("k>MaxK should fail")
	}
	if _, err := New([]byte{0, 1}, 5); err == nil {
		t.Error("text shorter than k should fail")
	}
}

// TestLookupMatchesBruteForce looks up single k-mers through Seeds:
// the seeds are exactly the k-mer's reference positions, at 2+P table
// accesses.
func TestLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		text := randomText(rng, 500+rng.Intn(500))
		k := 4 + rng.Intn(6)
		idx, err := New(text, k)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			var p []byte
			if rng.Intn(2) == 0 {
				off := rng.Intn(len(text) - k)
				p = text[off : off+k]
			} else {
				p = randomText(rng, k)
			}
			var st Stats
			got := idx.Seeds(p, 1, 0, &st)
			want := bruteKmerPositions(text, p)
			if len(got) != len(want) {
				t.Fatalf("Seeds found %d positions, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != (Seed{ReadPos: 0, RefPos: want[i]}) {
					t.Fatalf("seed %d: got %+v want ref pos %d", i, got[i], want[i])
				}
			}
			if st.PointerAccesses != 2 {
				t.Errorf("pointer accesses = %d, want 2", st.PointerAccesses)
			}
			if st.PositionAccesses != len(want) {
				t.Errorf("position accesses = %d, want %d (the P in 2+P)", st.PositionAccesses, len(want))
			}
		}
	}
}

// TestMaskedKmerAvoidsPositionTable looks up a present k-mer under a
// repeat mask it exceeds: the lookup reads the pointer pair only and
// never touches the position table.
func TestMaskedKmerAvoidsPositionTable(t *testing.T) {
	text := make([]byte, 300) // all A's: the k-mer occurs everywhere
	idx, err := New(text, 6)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if seeds := idx.Seeds(text[10:16], 1, 1, &st); len(seeds) != 0 {
		t.Fatalf("masked k-mer returned %d seeds", len(seeds))
	}
	if st.PointerAccesses != 2 || st.PositionAccesses != 0 {
		t.Errorf("masked lookup made %d pointer and %d position accesses, want 2 and 0", st.PointerAccesses, st.PositionAccesses)
	}
}

func TestLookupShortPattern(t *testing.T) {
	idx, _ := New([]byte{0, 1, 2, 3, 0, 1, 2, 3}, 4)
	if got := idx.Seeds([]byte{0, 1}, 1, 0, nil); got != nil {
		t.Errorf("short pattern returned %v", got)
	}
}

func TestSeedsStrideAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	text := randomText(rng, 2000)
	idx, err := New(text, 8)
	if err != nil {
		t.Fatal(err)
	}
	off := 700
	r := text[off : off+64]
	seeds := idx.Seeds(r, 8, 0, nil)
	if len(seeds) == 0 {
		t.Fatal("no seeds for exact substring")
	}
	foundTrue := 0
	for _, s := range seeds {
		if s.ReadPos%8 != 0 {
			t.Errorf("seed at read pos %d violates stride 8", s.ReadPos)
		}
		if s.RefPos == off+s.ReadPos {
			foundTrue++
		}
	}
	if foundTrue < 7 {
		t.Errorf("only %d/8 strided k-mers anchored at the true locus", foundTrue)
	}
}

func TestSeedsMaxOccMask(t *testing.T) {
	// Text of all A's: every k-mer occurs everywhere; maxOcc=1 must
	// mask them all out.
	text := make([]byte, 300)
	idx, err := New(text, 8)
	if err != nil {
		t.Fatal(err)
	}
	seeds := idx.Seeds(text[:50], 1, 1, nil)
	if len(seeds) != 0 {
		t.Errorf("repeat masking failed: got %d seeds", len(seeds))
	}
}

func TestTotalPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	text := randomText(rng, 777)
	k := 5
	idx, err := New(text, k)
	if err != nil {
		t.Fatal(err)
	}
	// The position table must contain exactly one entry per k-mer
	// window of the text.
	if got, want := len(idx.pos), len(text)-k+1; got != want {
		t.Errorf("position table size %d, want %d", got, want)
	}
}
