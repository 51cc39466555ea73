package fmindex

import (
	"math/rand"
	"testing"
)

// buildRepeatText makes a text containing copies+fragments of a shared
// element tail, plus unique background.
func buildRepeatText(rng *rand.Rand, copies int) ([]byte, []byte) {
	element := randomText(rng, 120)
	tail := element[80:] // 40 bp shared tail
	var text []byte
	for i := 0; i < copies; i++ {
		text = append(text, randomText(rng, 60)...)
		text = append(text, tail...)
	}
	text = append(text, randomText(rng, 200)...)
	return text, tail
}

func TestFindSMEMsReseedFindsHiddenRepeatMatch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	text, tail := buildRepeatText(rng, 12)
	bi := NewBi(text)
	// A read = unique prefix + tail + unique suffix, sampled at one
	// copy: the full-length SMEM (1 occurrence) hides the tail match.
	pos := 60 // first copy's tail starts at 60
	read := append([]byte(nil), text[pos-20:pos+len(tail)+20]...)

	plain := bi.FindSMEMsWS(new(Workspace), read, 15, nil)
	reseeded := bi.FindSMEMsReseedWS(new(Workspace), read, 15, 22, 10, nil)
	if len(reseeded) < len(plain) {
		t.Fatal("reseeding lost SMEMs")
	}
	// The plain pass sees only the full-length unique match; reseeding
	// must add interior sub-matches with more occurrences. (Exactly as
	// in BWA-MEM, a chance longer match with parentOcc+1 occurrences
	// may still shadow the repeat core — the third seeding pass exists
	// for that — so the assertion here is occ > parent, not occ = copy
	// count.)
	if len(reseeded) <= len(plain) {
		t.Fatalf("reseeding added nothing: %d vs %d", len(reseeded), len(plain))
	}
	added := 0
	for _, s := range reseeded {
		if s.Iv.Size() > 1 && s.ReadBeg > 0 && s.ReadEnd < len(read) {
			added++
		}
	}
	if added == 0 {
		t.Error("reseeding added no interior multi-occurrence sub-match")
	}
	// The full three-pass seeder must surface the high-occurrence core.
	core := bi.RepeatSeedsWS(new(Workspace), read, 15, 8, nil)
	foundCore := false
	for _, s := range core {
		if s.Iv.Size() >= 10 {
			foundCore = true
		}
	}
	if !foundCore {
		t.Error("repeat-seed pass missed the high-occurrence tail core")
	}
}

func TestFindSMEMsReseedNoDuplicates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		text, _ := buildRepeatText(rng, 8)
		bi := NewBi(text)
		read := append([]byte(nil), text[30:130]...)
		out := bi.FindSMEMsReseedWS(new(Workspace), read, 12, 18, 10, nil)
		seen := map[[2]int]bool{}
		for _, s := range out {
			k := [2]int{s.ReadBeg, s.ReadEnd}
			if seen[k] {
				t.Fatalf("duplicate SMEM %v", k)
			}
			seen[k] = true
			if s.Len() < 12 {
				t.Fatalf("SMEM %v below min length", k)
			}
		}
	}
}

func TestRepeatSeedsProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	text, tail := buildRepeatText(rng, 15)
	bi := NewBi(text)
	read := append([]byte(nil), tail...)
	read = append(read, randomText(rng, 30)...)

	seeds := bi.RepeatSeedsWS(new(Workspace), read, 15, 8, nil)
	if len(seeds) == 0 {
		t.Fatal("no repeat seeds in a 15-copy tail")
	}
	for i, s := range seeds {
		if s.Len() < 15 {
			t.Errorf("seed %d length %d < minLen", i, s.Len())
		}
		if s.Iv.Size() < 1 {
			t.Errorf("seed %d empty interval", i)
		}
		// The reported interval must match a brute-force count of the
		// seed's text occurrences (forward or reverse strand of the
		// index text).
		if got, want := s.Iv.Size(), bruteCount(withRC(text), read[s.ReadBeg:s.ReadEnd]); got != want {
			t.Errorf("seed %d: interval %d != brute count %d", i, got, want)
		}
		// Seeds do not overlap (the scan restarts after each emit).
		if i > 0 && s.ReadBeg < seeds[i-1].ReadEnd {
			t.Errorf("seed %d overlaps predecessor", i)
		}
	}
	// At least one seed must carry the repeat's high occurrence count.
	high := 0
	for _, s := range seeds {
		if s.Iv.Size() >= 8 {
			high++
		}
	}
	if high == 0 {
		t.Error("no high-occurrence seed found in the repeat tail")
	}
}

func TestRepeatSeedsUniqueTextTilesRead(t *testing.T) {
	t.Parallel()
	// In unique sequence the pass still emits (low-occurrence) seeds —
	// bwa's behaviour — roughly tiling the read at minLen granularity.
	rng := rand.New(rand.NewSource(4))
	text := randomText(rng, 3000)
	bi := NewBi(text)
	read := append([]byte(nil), text[100:200]...)
	seeds := bi.RepeatSeedsWS(new(Workspace), read, 19, 8, nil)
	if len(seeds) < 3 || len(seeds) > 6 {
		t.Errorf("expected ~5 tiled seeds on a 100 bp unique read, got %d", len(seeds))
	}
}

func TestRepeatSeedsEmptyAndShortReads(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	text := randomText(rng, 500)
	bi := NewBi(text)
	if got := bi.RepeatSeedsWS(new(Workspace), nil, 15, 8, nil); len(got) != 0 {
		t.Error("nil read gave seeds")
	}
	if got := bi.RepeatSeedsWS(new(Workspace), randomText(rng, 10), 15, 8, nil); len(got) != 0 {
		t.Error("too-short read gave seeds")
	}
}
