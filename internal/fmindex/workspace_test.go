package fmindex

import (
	"math/rand"
	"testing"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

// repeatText plants tandem and dispersed repeats so the re-seeding and
// repeat passes fire.
func repeatText(rng *rand.Rand, n int) []byte {
	unit := randText(rng, 13)
	t := make([]byte, 0, n)
	for len(t) < n {
		if rng.Intn(3) == 0 {
			t = append(t, unit...)
		} else {
			t = append(t, byte(rng.Intn(4)))
		}
	}
	return t[:n]
}

func drawRead(rng *rand.Rand, text []byte, n int) []byte {
	if len(text) <= n {
		return randText(rng, n)
	}
	off := rng.Intn(len(text) - n)
	r := make([]byte, n)
	copy(r, text[off:off+n])
	for k := 0; k < n/20; k++ {
		r[rng.Intn(n)] = byte(rng.Intn(4))
	}
	return r
}

// TestSeedsWSMatchesReference drives the workspace-backed three-pass
// seeder against the original map-based implementation: identical seed
// slices (same order) and identical Stats traffic, with one Workspace
// reused across every read.
func TestSeedsWSMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	text := repeatText(rng, 4000)
	sd := NewSeeder(text)
	var ws Workspace
	reads := 300
	if testing.Short() {
		reads = 80
	}
	for i := 0; i < reads; i++ {
		r := drawRead(rng, text, 40+rng.Intn(90))
		minLen := 10 + rng.Intn(12)
		maxOcc := rng.Intn(20)
		maxMemIntv := rng.Intn(12)
		var stWS, stRef Stats
		got := sd.SeedsWS(&ws, r, minLen, maxOcc, maxMemIntv, &stWS)
		want := sd.SeedsReference(r, minLen, maxOcc, maxMemIntv, &stRef)
		if len(got) != len(want) {
			t.Fatalf("read %d: %d seeds via workspace, %d via reference (minLen=%d maxOcc=%d maxMemIntv=%d)",
				i, len(got), len(want), minLen, maxOcc, maxMemIntv)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("read %d seed %d: workspace=%+v reference=%+v", i, k, got[k], want[k])
			}
		}
		if stWS != stRef {
			t.Fatalf("read %d: stats diverge: workspace=%+v reference=%+v", i, stWS, stRef)
		}
	}
}

// TestFastSeedsToggleIdentical is the core fast-path contract: seeds
// AND Stats from the interleaved-rank path equal the original
// reference over reads spanning the boundary cases — a single base,
// reads shorter than minLen, minLen down to 1, and regular reads.
func TestFastSeedsToggleIdentical(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	text := repeatText(rng, 3000)
	sd := NewSeeder(text)
	var ws Workspace
	lengths := []int{1, 2, 9, 10, 11, 14, 15, 40, 101}
	for i := 0; i < 200; i++ {
		n := lengths[i%len(lengths)]
		r := drawRead(rng, text, n)
		minLen := 1 + rng.Intn(20)
		var stFast, stRef Stats
		fast := append([]Seed(nil), sd.SeedsWS(&ws, r, minLen, 16, 8, &stFast)...)
		ref := sd.SeedsReference(r, minLen, 16, 8, &stRef)
		if len(fast) != len(ref) {
			t.Fatalf("read len %d minLen %d: %d seeds fast, %d reference\nfast=%v\nref=%v",
				n, minLen, len(fast), len(ref), fast, ref)
		}
		for k := range fast {
			if fast[k] != ref[k] {
				t.Fatalf("read len %d minLen %d seed %d: fast=%+v ref=%+v", n, minLen, k, fast[k], ref[k])
			}
		}
		if stFast != stRef {
			t.Fatalf("read len %d minLen %d: stats diverge fast=%+v ref=%+v",
				n, minLen, stFast, stRef)
		}
	}
}

// TestFindSMEMsReseedWSMatchesReference checks the sorted-sweep dedup
// against the original map-based reseed across random split
// parameters.
func TestFindSMEMsReseedWSMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(67))
	text := repeatText(rng, 3000)
	bi := NewBi(text)
	var ws Workspace
	for i := 0; i < 200; i++ {
		r := drawRead(rng, text, 30+rng.Intn(80))
		minLen := 8 + rng.Intn(10)
		splitLen := minLen * 3 / 2
		splitWidth := 1 + rng.Intn(15)
		got := bi.FindSMEMsReseedWS(&ws, r, minLen, splitLen, splitWidth, nil)
		want := bi.findSMEMsReseedReference(r, minLen, splitLen, splitWidth, nil)
		if len(got) != len(want) {
			t.Fatalf("read %d: %d smems via workspace, %d via reference", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("read %d smem %d: workspace=%+v reference=%+v", i, k, got[k], want[k])
			}
		}
	}
}

// TestSeedsWSZeroAlloc asserts the SU steady-state contract: seeding a
// read with a warm Workspace performs zero heap allocations.
func TestSeedsWSZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	text := repeatText(rng, 4000)
	sd := NewSeeder(text)
	reads := make([][]byte, 16)
	for i := range reads {
		reads[i] = drawRead(rng, text, 101)
	}
	var ws Workspace
	var st Stats
	for _, r := range reads { // warm across the size distribution
		sd.SeedsWS(&ws, r, 15, 16, 8, &st)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sd.SeedsWS(&ws, reads[i%len(reads)], 15, 16, 8, &st)
		i++
	})
	if allocs != 0 {
		t.Fatalf("SeedsWS allocates %v per read with warm workspace, want 0", allocs)
	}
}

// TestFindSMEMsWSZeroAlloc asserts the same for the bare SMEM pass,
// as the accelerator's non-reseed configurations call it directly.
func TestFindSMEMsWSZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	text := repeatText(rng, 4000)
	bi := NewBi(text)
	r := drawRead(rng, text, 101)
	var ws Workspace
	bi.FindSMEMsWS(&ws, r, 15, nil) // warm
	allocs := testing.AllocsPerRun(200, func() {
		bi.FindSMEMsWS(&ws, r, 15, nil)
	})
	if allocs != 0 {
		t.Fatalf("FindSMEMsWS allocates %v per read with warm workspace, want 0", allocs)
	}
}

// TestOccRankEquivalence checks the interleaved rank kernels, single-
// base occRaw and the fused four-base occ4Fast, against a naive count
// over the decoded BWT at every position of a text spanning several
// checkpoint intervals, including the primary row's word and the
// clamped positions just outside [0, size]. occ4Fast's contract is
// i in [0, size] (extension only ranks interval bounds), so it is
// probed at the clamped position.
func TestOccRankEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(83))
	text := randText(rng, 5*128+29)
	x := New(text)
	bwt := decodeBWT(x)
	for i := -1; i <= x.size()+1; i++ {
		c := min(max(i, 0), x.size())
		var fast4 [4]int
		fast4[0], fast4[1], fast4[2], fast4[3] = x.occ4Fast(c)
		for a := byte(0); a < 4; a++ {
			want := naiveOcc(bwt, x.primary, a, i)
			if got := x.occRaw(a, i); got != want || fast4[a] != want {
				t.Fatalf("occ(%d, %d): occRaw=%d occ4Fast=%d naive=%d", a, i, got, fast4[a], want)
			}
		}
	}
}

// TestSortedKeySet pins the dedup primitive itself.
func TestSortedKeySet(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(79))
	var keys [][2]int
	ref := map[[2]int]bool{}
	for i := 0; i < 2000; i++ {
		k := [2]int{rng.Intn(40), rng.Intn(40)}
		var added bool
		keys, added = addKey(keys, k)
		if added == ref[k] {
			t.Fatalf("addKey(%v) added=%v but map says present=%v", k, added, ref[k])
		}
		ref[k] = true
		probe := [2]int{rng.Intn(40), rng.Intn(40)}
		if hasKey(keys, probe) != ref[probe] {
			t.Fatalf("hasKey(%v) = %v, map says %v", probe, hasKey(keys, probe), ref[probe])
		}
	}
	for i := 1; i < len(keys); i++ {
		if !keyLess(keys[i-1], keys[i]) {
			t.Fatalf("keys not strictly sorted at %d: %v %v", i, keys[i-1], keys[i])
		}
	}
}
