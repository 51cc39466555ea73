// Package align implements the approximate string matching substrate of
// NvWa's EUs: affine-gap Smith-Waterman local alignment with traceback
// (the algorithm the paper's systolic arrays execute), a banded
// variant, global Needleman-Wunsch, and BWA-MEM-style seed extension.
//
// The scoring scheme is faithful to BWA-MEM 0.7.17 defaults (match +1,
// mismatch -4, gap open 6, gap extend 1, i.e. a gap of length g costs
// 6+g), which the paper requires for its no-loss-of-accuracy claim.
package align

import "fmt"

// Scoring is an alignment scoring scheme. Penalties are stored as
// positive magnitudes.
type Scoring struct {
	// Match is the score of a matching base pair.
	Match int
	// Mismatch is the penalty of a mismatching base pair.
	Mismatch int
	// GapOpen is the penalty charged when a gap is opened, in addition
	// to the first GapExtend (a gap of length g costs GapOpen+g*GapExtend).
	GapOpen int
	// GapExtend is the penalty per gap base.
	GapExtend int
}

// BWAMEM returns the BWA-MEM 0.7.17 default scoring scheme.
func BWAMEM() Scoring { return Scoring{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1} }

// sub returns the substitution score of bases a and b.
func (s Scoring) sub(a, b byte) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

// Op is a CIGAR operation.
type Op byte

// CIGAR operations: M consumes both sequences, I consumes the read
// (insertion to the reference), D consumes the reference.
const (
	OpM Op = 'M'
	OpI Op = 'I'
	OpD Op = 'D'
)

// CigarOp is one run-length encoded CIGAR element.
type CigarOp struct {
	Op  Op
	Len int
}

// Cigar is a run-length encoded alignment path.
type Cigar []CigarOp

// String renders the CIGAR in SAM notation.
func (c Cigar) String() string {
	out := ""
	for _, op := range c {
		out += fmt.Sprintf("%d%c", op.Len, op.Op)
	}
	return out
}

// Result is a local alignment: read[ReadBeg:ReadEnd) aligned to
// ref[RefBeg:RefEnd) with the given score and path.
type Result struct {
	Score            int
	RefBeg, RefEnd   int
	ReadBeg, ReadEnd int
	Cigar            Cigar
}

const negInf = int(-1) << 30

// negInf16 is the dead value of the extension kernel's int16 rows, as
// negInf is of its int32 rows (see deadOf).
const negInf16 = -1 << 14

// traceback direction encoding, packed one byte per cell:
// bits 0-1: H source (0 stop, 1 diagonal, 2 from E/del, 3 from F/ins)
// bit 2: E extends an existing deletion
// bit 3: F extends an existing insertion
const (
	hStop = 0
	hDiag = 1
	hDel  = 2
	hIns  = 3
)

// Local computes the optimal affine-gap local alignment of read
// against ref with full O(|ref|*|read|) dynamic programming and
// traceback. It is a thin wrapper over localBandedWS with a private
// workspace.
func Local(ref, read []byte, sc Scoring) Result {
	var s Scratch
	return LocalWithScratch(&s, ref, read, sc)
}

// LocalWithScratch is Local using s for its DP matrices, so a warm
// Scratch allocates nothing. The Result's Cigar aliases s: it is valid
// until the next call that uses s.
func LocalWithScratch(s *Scratch, ref, read []byte, sc Scoring) Result {
	return localBandedWS(s, ref, read, sc, -1)
}

// LocalBanded computes a banded local alignment: cells with
// |i-j| > band are excluded. A band of -1 disables banding. With a
// sufficiently wide band the result equals Local. It is a thin
// wrapper over localBandedWS with a private workspace.
func LocalBanded(ref, read []byte, sc Scoring, band int) Result {
	var s Scratch
	return localBandedWS(&s, ref, read, sc, band)
}

// ScoreCigar recomputes the score of a local alignment path, for
// validation: it must equal Result.Score.
func ScoreCigar(ref, read []byte, r Result, sc Scoring) (int, error) {
	i, j := r.RefBeg, r.ReadBeg
	score := 0
	for _, op := range r.Cigar {
		switch op.Op {
		case OpM:
			for k := 0; k < op.Len; k++ {
				if i >= len(ref) || j >= len(read) {
					return 0, fmt.Errorf("align: M op overruns sequences at (%d,%d)", i, j)
				}
				score += sc.sub(ref[i], read[j])
				i++
				j++
			}
		case OpD:
			score -= sc.GapOpen + op.Len*sc.GapExtend
			i += op.Len
		case OpI:
			score -= sc.GapOpen + op.Len*sc.GapExtend
			j += op.Len
		default:
			return 0, fmt.Errorf("align: unknown op %c", op.Op)
		}
	}
	if i != r.RefEnd || j != r.ReadEnd {
		return 0, fmt.Errorf("align: path ends at (%d,%d), result says (%d,%d)", i, j, r.RefEnd, r.ReadEnd)
	}
	return score, nil
}

// Extend computes a BWA-MEM-style seed extension: read is aligned
// against ref anchored at position (0,0) (the seed boundary), the
// alignment may end anywhere, and the best-scoring end is returned.
// initScore seeds the running score (the seed's own score), so a
// negative-scoring extension is rejected in favour of stopping at the
// anchor, exactly like ksw_extend.
//
// zdrop is BWA-MEM's z-drop heuristic (default 100): the DP terminates
// once the best score of a reference row falls more than zdrop below
// the global best, so hopeless extensions (spurious seeds in unrelated
// sequence) stop after a few rows instead of filling the whole matrix.
// A negative zdrop disables it. The returned rows value is the number
// of reference rows actually processed — the quantity the extension
// unit's GACT-style early-termination cost model charges for.
//
// Extend is a thin wrapper over ExtendWithScratch with a private
// workspace and no band (w = -1); hot paths should reuse a Scratch and
// pass their band. The shrinking window underneath is byte-identical
// to ExtendReference (the full-row kernel, kept as the
// differential-test oracle).
func Extend(ref, read []byte, sc Scoring, initScore, zdrop int) (score, refEnd, readEnd, rows int) {
	var s Scratch
	return ExtendWithScratch(&s, ref, read, sc, initScore, zdrop, -1)
}

// ExtendReference is the full-row extension kernel, retained as the
// oracle for ExtendWithScratch, directly and through
// ExtendBandReference. With w >= 0 it
// computes only the cells with |i-j| <= w, every other cell reading as
// -inf, and makes one pass: it does not retry at 2w. maxOff is
// BWA-MEM's max_off, the largest |i-j| of a row maximum that raised
// the running best, from which ExtendBandReference composes the retry.
// It allocates its rolling rows on every call.
func ExtendReference(ref, read []byte, sc Scoring, initScore, zdrop, w int) (score, refEnd, readEnd, rows, maxOff int) {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return initScore, 0, 0, 0, 0
	}
	h := make([]int, n+1)
	e := make([]int, n+1)
	best, bi, bj := initScore, 0, 0
	for j := 1; j <= n; j++ {
		h[j] = negInf
		if w < 0 || j <= w {
			h[j] = initScore - sc.GapOpen - j*sc.GapExtend
		}
		e[j] = negInf
	}
	h[0] = initScore
	for i := 1; i <= m; i++ {
		lo, hi := 1, n
		if w >= 0 {
			lo, hi = max(lo, i-w), min(hi, i+w)
		}
		hDiagPrev := h[0]
		h[0] = negInf
		if w < 0 || i <= w {
			h[0] = initScore - sc.GapOpen - i*sc.GapExtend
		}
		fRow := negInf
		rowBest, rowArg := negInf, 0
		for j := 1; j <= n; j++ {
			diag := hDiagPrev + sc.sub(ref[i-1], read[j-1])
			hDiagPrev = h[j]
			if j < lo || j > hi {
				h[j], e[j], fRow = negInf, negInf, negInf
				continue
			}
			eNew := max2(e[j]-sc.GapExtend, h[j]-sc.GapOpen-sc.GapExtend)
			fRow = max2(fRow-sc.GapExtend, h[j-1]-sc.GapOpen-sc.GapExtend)
			h[j] = max2(diag, max2(eNew, fRow))
			e[j] = eNew
			if h[j] > rowBest {
				rowBest, rowArg = h[j], j
			}
		}
		if rowBest > best {
			best, bi, bj = rowBest, i, rowArg
			maxOff = max(maxOff, i-rowArg, rowArg-i)
		}
		rows = i
		if zdrop >= 0 && rowBest < best-zdrop {
			break
		}
	}
	return best, bi, bj, rows, maxOff
}

// ExtendBandReference is the oracle for ExtendWithScratch at band w:
// BWA-MEM's retry (mem_chain2aln, MAX_BAND_TRY = 2) composed from two
// ExtendReference passes, the second at 2w when the first pass's
// max_off reaches 3/4 of w. retried reports whether it reran.
func ExtendBandReference(ref, read []byte, sc Scoring, initScore, zdrop, w int) (score, refEnd, readEnd, rows int, retried bool) {
	score, refEnd, readEnd, rows, off := ExtendReference(ref, read, sc, initScore, zdrop, w)
	if bandRetry(w, off) {
		score, refEnd, readEnd, rows, _ = ExtendReference(ref, read, sc, initScore, zdrop, 2*w)
		return score, refEnd, readEnd, rows, true
	}
	return score, refEnd, readEnd, rows, false
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
