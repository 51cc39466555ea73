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

// RefLen returns the number of reference bases the path consumes.
func (c Cigar) RefLen() int {
	n := 0
	for _, op := range c {
		if op.Op == OpM || op.Op == OpD {
			n += op.Len
		}
	}
	return n
}

// ReadLen returns the number of read bases the path consumes.
func (c Cigar) ReadLen() int {
	n := 0
	for _, op := range c {
		if op.Op == OpM || op.Op == OpI {
			n += op.Len
		}
	}
	return n
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
	return localBandedWS(&s, ref, read, sc, -1)
}

// LocalBanded computes a banded local alignment: cells with
// |i-j| > band are excluded. A band of -1 disables banding. With a
// sufficiently wide band the result equals Local. It is a thin
// wrapper over localBandedWS with a private workspace.
func LocalBanded(ref, read []byte, sc Scoring, band int) Result {
	var s Scratch
	return localBandedWS(&s, ref, read, sc, band)
}

// localBandedReference is the original allocating DP kept as the
// differential-test oracle for localBandedWS.
func localBandedReference(ref, read []byte, sc Scoring, band int) Result {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return Result{}
	}
	// H indexed [i][j] with i over ref 1..m, j over read 1..n.
	h := make([]int, (m+1)*(n+1))
	e := make([]int, (m+1)*(n+1)) // gap in read (deletion, consumes ref)
	f := make([]int, (m+1)*(n+1)) // gap in ref (insertion, consumes read)
	tb := make([]byte, (m+1)*(n+1))
	idx := func(i, j int) int { return i*(n+1) + j }

	// Row 0 and column 0: H=0 (local alignment may start anywhere),
	// gap states unreachable.
	for i := 0; i <= m; i++ {
		e[idx(i, 0)] = negInf
		f[idx(i, 0)] = negInf
	}
	for j := 0; j <= n; j++ {
		e[idx(0, j)] = negInf
		f[idx(0, j)] = negInf
	}

	best, bi, bj := 0, 0, 0
	for i := 1; i <= m; i++ {
		lo, hi := 1, n
		if band >= 0 {
			if i-band > lo {
				lo = i - band
			}
			if i+band < hi {
				hi = i + band
			}
			if lo > n+1 {
				lo = n + 1 // row entirely outside the band
			}
		}
		for j := 0; j < lo; j++ {
			h[idx(i, j)] = 0
			e[idx(i, j)] = negInf
			f[idx(i, j)] = negInf
		}
		for j := lo; j <= hi; j++ {
			ii := idx(i, j)
			// E: gap in read (move down in ref).
			eo := h[idx(i-1, j)] - sc.GapOpen - sc.GapExtend
			ee := e[idx(i-1, j)] - sc.GapExtend
			if ee > eo {
				e[ii] = ee
				tb[ii] |= 1 << 2
			} else {
				e[ii] = eo
			}
			// F: gap in ref (move right in read).
			fo := h[idx(i, j-1)] - sc.GapOpen - sc.GapExtend
			fe := f[idx(i, j-1)] - sc.GapExtend
			if fe > fo {
				f[ii] = fe
				tb[ii] |= 1 << 3
			} else {
				f[ii] = fo
			}
			// H: best of stop/diag/E/F.
			diag := h[idx(i-1, j-1)] + sc.sub(ref[i-1], read[j-1])
			hv, dir := 0, hStop
			if diag > hv {
				hv, dir = diag, hDiag
			}
			if e[ii] > hv {
				hv, dir = e[ii], hDel
			}
			if f[ii] > hv {
				hv, dir = f[ii], hIns
			}
			h[ii] = hv
			tb[ii] |= byte(dir)
			if hv > best {
				best, bi, bj = hv, i, j
			}
		}
		for j := hi + 1; j <= n; j++ {
			h[idx(i, j)] = 0
			e[idx(i, j)] = negInf
			f[idx(i, j)] = negInf
		}
	}
	if best == 0 {
		return Result{}
	}

	// Traceback from (bi, bj).
	var rev Cigar
	push := func(op Op) {
		if len(rev) > 0 && rev[len(rev)-1].Op == op {
			rev[len(rev)-1].Len++
		} else {
			rev = append(rev, CigarOp{op, 1})
		}
	}
	i, j := bi, bj
	for i > 0 && j > 0 {
		ii := idx(i, j)
		switch tb[ii] & 3 {
		case hStop:
			goto done
		case hDiag:
			push(OpM)
			i--
			j--
		case hDel:
			// Walk the deletion run.
			for {
				push(OpD)
				cont := tb[idx(i, j)]&(1<<2) != 0
				i--
				if !cont {
					break
				}
			}
		case hIns:
			for {
				push(OpI)
				cont := tb[idx(i, j)]&(1<<3) != 0
				j--
				if !cont {
					break
				}
			}
		}
	}
done:
	cigar := make(Cigar, len(rev))
	for k := range rev {
		cigar[k] = rev[len(rev)-1-k]
	}
	return Result{
		Score:   best,
		RefBeg:  i,
		RefEnd:  bi,
		ReadBeg: j,
		ReadEnd: bj,
		Cigar:   cigar,
	}
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
// workspace; hot paths should reuse a Scratch. The banded fast path
// underneath is byte-identical to ExtendReference (the original
// full-row kernel, kept as the differential-test oracle).
func Extend(ref, read []byte, sc Scoring, initScore, zdrop int) (score, refEnd, readEnd, rows int) {
	var s Scratch
	return ExtendWithScratch(&s, ref, read, sc, initScore, zdrop)
}

// ExtendReference is the original full-row extension kernel, retained
// verbatim as the oracle for ExtendWithScratch's shrinking band and as
// the "before" baseline in the kernel benchmarks. It allocates its
// rolling rows on every call.
func ExtendReference(ref, read []byte, sc Scoring, initScore, zdrop int) (score, refEnd, readEnd, rows int) {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return initScore, 0, 0, 0
	}
	h := make([]int, n+1)
	e := make([]int, n+1)
	best, bi, bj := initScore, 0, 0
	for j := 1; j <= n; j++ {
		h[j] = initScore - sc.GapOpen - j*sc.GapExtend
		e[j] = negInf
	}
	h[0] = initScore
	for i := 1; i <= m; i++ {
		hDiagPrev := h[0]
		h[0] = initScore - sc.GapOpen - i*sc.GapExtend
		fRow := negInf
		rowBest := negInf
		for j := 1; j <= n; j++ {
			eNew := max2(e[j]-sc.GapExtend, h[j]-sc.GapOpen-sc.GapExtend)
			fRow = max2(fRow-sc.GapExtend, h[j-1]-sc.GapOpen-sc.GapExtend)
			diag := hDiagPrev + sc.sub(ref[i-1], read[j-1])
			hDiagPrev = h[j]
			h[j] = max2(diag, max2(eNew, fRow))
			e[j] = eNew
			if h[j] > best {
				best, bi, bj = h[j], i, j
			}
			if h[j] > rowBest {
				rowBest = h[j]
			}
		}
		rows = i
		if zdrop >= 0 && rowBest < best-zdrop {
			break
		}
	}
	return best, bi, bj, rows
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
