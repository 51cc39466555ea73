package fmindex

import (
	"fmt"
	"math/bits"
)

// OccInterval is the checkpoint spacing of the *modeled* hardware
// occurrence table: the paper sets the FM-index interval of its SUs to
// 128 (Sec. V-A), and Stats charges one 128-base block read per Occ
// evaluation accordingly. The software implementation underneath keeps
// a denser per-word checkpoint (one [4]int32 every 32 bases) so rank
// queries are O(1) instead of scanning up to four words; the modeled
// traffic is charged per call, so the cost model is unaffected.
const OccInterval = 128

// saSampleRate is the suffix-array sampling used by Locate. One LF
// walk averages saSampleRate/2 steps.
const saSampleRate = 32

const basesPerWord = 32 // 2-bit bases in a uint64

// Stats counts the memory traffic of index operations. The SU cycle
// model converts these counts into cycles and DRAM transactions.
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
// to t.
func New(t []byte) *Index {
	sa := BuildSuffixArray(t)
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

	// Sampled suffix array with per-word rank checkpoints.
	idx.saMask = make([]uint64, (n+63)/64)
	for i, s := range sa {
		if s%saSampleRate == 0 {
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

// TextLen returns the length of the indexed text (without sentinel).
func (x *Index) TextLen() int { return x.textLen }

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

// Validate performs internal consistency checks, for tests.
func (x *Index) Validate() error {
	if x.primary < 0 || x.primary >= x.size() {
		return fmt.Errorf("fmindex: primary %d out of range", x.primary)
	}
	total := 0
	for a := byte(0); a < 4; a++ {
		total += x.occRaw(a, x.size())
	}
	if total != x.textLen {
		return fmt.Errorf("fmindex: occ total %d != text length %d", total, x.textLen)
	}
	return nil
}
