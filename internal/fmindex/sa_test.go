package fmindex

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nvwa/internal/genome"
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

// buildSuffixArrayDoubling is the prefix-doubling construction that
// BuildSuffixArray's SA-IS replaced, kept as its oracle: the suffix
// array of a text is unique, so the two must agree entry for entry.
// It uses two-pass counting sort, O(n log n) time and O(n) additional
// memory, and starts from an 8-base counting sort (fewer on short
// texts), which saves the first three doubling rounds.
func buildSuffixArrayDoubling(t []byte) []int32 {
	n := len(t) + 1
	sa := make([]int32, n)
	rank := make([]int32, n)
	tmp := make([]int32, n)

	// Initial ranks: the first q symbols of each suffix as a base-5
	// number, the sentinel (and past it) 0 and each base its code+1.
	// q is the largest q <= 8 with 5^q <= n, so the buckets stay O(n)
	// while doubling starts at k = q instead of 1.
	q, buckets := 1, 5
	for q < 8 && buckets*5 <= n {
		q++
		buckets *= 5
	}
	top := int32(buckets / 5)
	rank[n-1] = 0
	for i := n - 2; i >= 0; i-- {
		rank[i] = (int32(t[i])+1)*top + rank[i+1]/5
	}

	// Initial sort by those keys (stable counting sort).
	cnt := make([]int32, max(n, buckets))
	for i := 0; i < n; i++ {
		cnt[rank[i]]++
	}
	var sum int32
	for i := 0; i < buckets; i++ {
		c := cnt[i]
		cnt[i] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		sa[cnt[rank[i]]] = int32(i)
		cnt[rank[i]]++
	}

	// Compact ranks to [0, n) so counting sorts can use n-sized buckets.
	rank2 := make([]int32, n)
	rank2[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank2[sa[i]] = rank2[sa[i-1]]
		if rank[sa[i]] != rank[sa[i-1]] {
			rank2[sa[i]]++
		}
	}
	rank, rank2 = rank2, rank
	for k := q; k < n; k <<= 1 {
		// Sort by second key (rank[i+k], 0 past the end). Suffixes
		// i >= n-k have second key 0 and must come first among equal
		// first keys; generate the order directly instead of sorting.
		idx := 0
		for i := n - k; i < n; i++ {
			tmp[idx] = int32(i)
			idx++
		}
		for _, s := range sa {
			if s >= int32(k) {
				tmp[idx] = s - int32(k)
				idx++
			}
		}
		// Stable counting sort by first key rank[i].
		for i := 0; i < n; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		var sum int32
		for i := 0; i < n; i++ {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for _, s := range tmp {
			sa[cnt[rank[s]]] = s
			cnt[rank[s]]++
		}
		// Recompute ranks.
		rank2[sa[0]] = 0
		var maxRank int32
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			same := rank[a] == rank[b]
			if same {
				var ka, kb int32
				if int(a)+k < n {
					ka = rank[a+int32(k)] + 1
				}
				if int(b)+k < n {
					kb = rank[b+int32(k)] + 1
				}
				same = ka == kb
			}
			if same {
				rank2[b] = maxRank
			} else {
				maxRank++
				rank2[b] = maxRank
			}
		}
		rank, rank2 = rank2, rank
		if int(maxRank) == n-1 {
			break
		}
	}
	return sa
}

// BWTFromSA derives the Burrows-Wheeler transform of t+sentinel from
// its suffix array. The returned bwt has len(t)+1 symbols where
// bwt[primary] is the sentinel (stored as 0; callers must treat index
// primary specially) and primary is its position.
func BWTFromSA(t []byte, sa []int32) (bwt []byte, primary int) {
	n := len(sa)
	bwt = make([]byte, n)
	primary = -1
	for i, s := range sa {
		if s == 0 {
			bwt[i] = 0 // sentinel placeholder
			primary = i
		} else {
			bwt[i] = t[s-1]
		}
	}
	return bwt, primary
}

// newIndexDoubling builds an Index the way New did before its one-pass
// derivation: the doubling oracle's suffix array, BWTFromSA, then
// separate packing, C-table and sampling loops.
func newIndexDoubling(t []byte) *Index {
	sa := buildSuffixArrayDoubling(t)
	bwtBytes, primary := BWTFromSA(t, sa)
	n := len(bwtBytes)

	idx := &Index{textLen: len(t), primary: primary}

	// Pack the BWT into blocks, each with its word's checkpoint.
	nw := (n + basesPerWord - 1) / basesPerWord
	idx.blocks = make([]occBlock, nw+1)
	var running [4]int32
	for i, b := range bwtBytes {
		w := i / basesPerWord
		if i%basesPerWord == 0 {
			idx.blocks[w].cnt = running
		}
		idx.blocks[w].word |= uint64(b&3) << uint((i%basesPerWord)*2)
		if i != primary {
			running[b&3]++
		}
	}
	idx.blocks[nw].cnt = running

	// C table: counts of symbols smaller than a. Sentinel counts as the
	// single smallest symbol.
	var freq [4]int
	for _, b := range t {
		freq[b&3]++
	}
	idx.c[0] = 1
	for a := 1; a < 5; a++ {
		idx.c[a] = idx.c[a-1] + freq[a-1]
	}

	// Sampled suffix array with per-word rank checkpoints. SA values
	// run over [0, n), so n/softSARate rounded up of them are sampled.
	idx.saMask = make([]uint64, (n+63)/64)
	idx.saVals = make([]int32, 0, (n+softSARate-1)/softSARate)
	for i, s := range sa {
		if s%softSARate == 0 {
			idx.saMask[i/64] |= 1 << uint(i%64)
			idx.saVals = append(idx.saVals, s)
		}
	}
	idx.saRank = make([]int32, len(idx.saMask)+1)
	for w, word := range idx.saMask {
		idx.saRank[w+1] = idx.saRank[w] + int32(bits.OnesCount64(word))
	}
	return idx
}

// TestIndexMatchesDoublingOracle checks that New, on SA-IS and one pass
// over the suffix array, builds the same index, field for field, as the
// doubling oracle with its separate BWT and packing passes.
func TestIndexMatchesDoublingOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	texts := [][]byte{{}, {0}, {1, 2}, {3, 0, 1}}
	for _, n := range []int{31, 32, 33} {
		texts = append(texts, randomText(rng, n))
	}
	ac := make([]byte, 1000)
	for i := range ac {
		ac[i] = byte(i % 2)
	}
	texts = append(texts, make([]byte, 1000), ac) // all-A, (AC)^500
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := 0; seed < seeds; seed++ {
		texts = append(texts, withRC(genome.Generate(genome.HumanLike(), 200_000, int64(seed)).Seq))
	}
	for _, text := range texts {
		got, want := New(text), newIndexDoubling(text)
		if got.textLen != want.textLen || got.primary != want.primary || got.c != want.c {
			t.Fatalf("len %d: textLen/primary/c = %d/%d/%v, want %d/%d/%v", len(text),
				got.textLen, got.primary, got.c, want.textLen, want.primary, want.c)
		}
		for _, f := range []struct {
			name string
			same bool
		}{
			{"blocks", slices.Equal(got.blocks, want.blocks)},
			{"saMask", slices.Equal(got.saMask, want.saMask)},
			{"saRank", slices.Equal(got.saRank, want.saRank)},
			{"saVals", slices.Equal(got.saVals, want.saVals)},
		} {
			if !f.same {
				t.Fatalf("len %d: %s differs from the oracle's", len(text), f.name)
			}
		}
	}
}

// TestNewBiAllocBytes bounds the heap one FMD-index build allocates on
// the 200 kbp human-like reference: at most 10 bytes per base of
// T·revcomp(T), counting the text, the suffix array, the SA-IS type
// bitsets and buckets, and the index itself. Prefix doubling allocated
// 23.6. It does not run in parallel: TotalAlloc is process-wide.
func TestNewBiAllocBytes(t *testing.T) {
	ref := genome.Generate(genome.HumanLike(), 200_000, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bi := NewBi(ref.Seq)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(bi)
	perBase := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*len(ref.Seq))
	t.Logf("NewBi allocated %.2f B per base of T·revcomp(T)", perBase)
	if perBase > 10 {
		t.Errorf("NewBi allocated %.2f B per base of T·revcomp(T), budget 10", perBase)
	}
}

// TestMaxTextLen pins the index limit: T·revcomp(T) and its sentinel
// fit in an int32 at MaxTextLen bases and not at one base more.
func TestMaxTextLen(t *testing.T) {
	t.Parallel()
	if n := 2*int64(MaxTextLen) + 1; n > math.MaxInt32 {
		t.Errorf("2*MaxTextLen+1 = %d exceeds MaxInt32", n)
	}
	if n := 2*int64(MaxTextLen+1) + 1; n <= math.MaxInt32 {
		t.Errorf("MaxTextLen+1 = %d bases still fit", MaxTextLen+1)
	}
}
