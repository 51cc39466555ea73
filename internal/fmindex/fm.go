package fmindex

import "math/bits"

// saSampleRate is the modeled suffix-array sampling: Locate charges
// the LF walk to the nearest SA value divisible by it, which averages
// saSampleRate/2 steps.
const saSampleRate = 32

// softSARate is the software index's denser sampling. It divides
// saSampleRate, so every modeled sample is also a software one.
const softSARate = 8

const basesPerWord = 32 // 2-bit bases in a uint64

// Stats counts the memory traffic of index operations. The SU cycle
// model converts these counts into cycles and DRAM transactions.
//
// The *modeled* occurrence table has the paper's FM-index interval of
// 128 (Sec. V-A), so Stats charges one 128-base block read per Occ
// evaluation. The software index underneath keeps a denser per-word
// checkpoint (one [4]int32 every 32 bases) so rank queries are O(1)
// instead of scanning up to four words; the modeled traffic is charged
// per call, so the cost model is unaffected. Likewise the modeled
// suffix array is sampled every saSampleRate (32) text positions, while
// the software index samples every softSARate (8): Locate walks the
// shorter software path and charges the LF steps of the modeled one.
type Stats struct {
	// OccAccesses counts occurrence-table block reads (one 128-base
	// checkpointed block per Occ evaluation) served from SU table SRAM.
	OccAccesses int
	// LFSteps counts LF-mapping steps performed during Locate walks.
	LFSteps int
	// SALookups counts sampled-suffix-array reads, served from HBM.
	SALookups int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.OccAccesses += other.OccAccesses
	s.LFSteps += other.LFSteps
	s.SALookups += other.SALookups
}

// Index is an FM-index over a 2-bit coded text plus virtual sentinel.
type Index struct {
	textLen int
	primary int // BWT position of the sentinel
	// blocks is the interleaved rank layout: block w holds packed BWT
	// word w (32 bases, sentinel stored as 0) and the occurrence
	// checkpoint of every base in bwt[0 : w*32), primary excluded, so
	// any rank query popcounts at most one partial word; see
	// interleave.go.
	blocks []occBlock
	c      [5]int   // C[a] = count of bases < a in text (sentinel included at rank 0)
	saMask []uint64 // bitset: SA value sampled at this BWT row?
	saRank []int32  // cumulative popcount of saMask words, for O(1) rank
	saVals []int32  // sampled SA values, indexed by rank among sampled rows
}

// New builds an FM-index of t (2-bit codes). It retains no reference
// to t. One pass over the suffix array fills the packed BWT words,
// their occurrence checkpoints, the sentinel's row and the sampled
// suffix array.
func New(t []byte) *Index {
	sa := BuildSuffixArray(t)
	n := len(sa)

	idx := &Index{textLen: len(t)}
	nw := (n + basesPerWord - 1) / basesPerWord
	idx.blocks = make([]occBlock, nw+1)
	// SA values run over [0, n), so n/softSARate rounded up of them are
	// sampled.
	idx.saMask = make([]uint64, (n+63)/64)
	idx.saVals = make([]int32, 0, (n+softSARate-1)/softSARate)
	var running [4]int32
	for i, s := range sa {
		w := i / basesPerWord
		if i%basesPerWord == 0 {
			idx.blocks[w].cnt = running
		}
		if s == 0 {
			idx.primary = i // the sentinel, stored as 0 and counted nowhere
		} else {
			b := t[s-1] & 3
			idx.blocks[w].word |= uint64(b) << uint((i%basesPerWord)*2)
			running[b]++
		}
		if s%softSARate == 0 {
			idx.saMask[i/64] |= 1 << uint(i%64)
			idx.saVals = append(idx.saVals, s)
		}
	}
	idx.blocks[nw].cnt = running

	// C table: counts of symbols smaller than a. Sentinel counts as the
	// single smallest symbol; running now holds each base's total.
	idx.c[0] = 1
	for a := 1; a < 5; a++ {
		idx.c[a] = idx.c[a-1] + int(running[a-1])
	}

	// Per-word rank checkpoints of the sampled rows.
	idx.saRank = make([]int32, len(idx.saMask)+1)
	for w, word := range idx.saMask {
		idx.saRank[w+1] = idx.saRank[w] + int32(bits.OnesCount64(word))
	}
	return idx
}

// size returns the BWT length (text + sentinel).
func (x *Index) size() int { return x.textLen + 1 }

// Occ returns the number of occurrences of base a in bwt[0:i), and
// charges one occurrence-table access to st.
func (x *Index) Occ(a byte, i int, st *Stats) int {
	if st != nil {
		st.OccAccesses++
	}
	return x.occRaw(a, i)
}

// Interval is a half-open SA interval [Lo, Hi) of rows whose suffixes
// start with the current pattern.
type Interval struct {
	Lo, Hi int
}

// Size returns the number of occurrences represented by the interval.
func (iv Interval) Size() int { return iv.Hi - iv.Lo }

// Empty reports whether the interval holds no occurrences.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Full returns the interval of the empty pattern: all rows.
func (x *Index) Full() Interval { return Interval{0, x.size()} }

// Extend performs one backward-search step: the interval of pattern P
// becomes the interval of aP. Two Occ evaluations are charged.
func (x *Index) Extend(iv Interval, a byte, st *Stats) Interval {
	lo := x.c[a] + x.Occ(a, iv.Lo, st)
	hi := x.c[a] + x.Occ(a, iv.Hi, st)
	return Interval{lo, hi}
}

// Count returns the number of occurrences of pattern p in the text.
func (x *Index) Count(p []byte, st *Stats) int {
	iv := x.Full()
	for i := len(p) - 1; i >= 0; i-- {
		iv = x.Extend(iv, p[i], st)
		if iv.Empty() {
			return 0
		}
	}
	return iv.Size()
}

// sampleRank returns the index into saVals for sampled row i.
func (x *Index) sampleRank(i int) int {
	return int(x.saRank[i/64]) + bits.OnesCount64(x.saMask[i/64]&((1<<uint(i%64))-1))
}

// LocateAll returns the text positions of every occurrence in iv, up
// to max (0 means no limit).
func (x *Index) LocateAll(iv Interval, max int, st *Stats) []int {
	n := iv.Size()
	if max > 0 && n > max {
		n = max
	}
	out := make([]int, 0, n)
	for i := iv.Lo; i < iv.Lo+n; i++ {
		out = append(out, x.Locate(i, st))
	}
	return out
}
