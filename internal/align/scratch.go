// Scratch-backed kernel variants. The package-level entry points
// (Local, LocalBanded, Extend) allocate their DP state on every call;
// at the simulator's scale those matrices are rebuilt thousands of
// times per figure, so the hot paths thread a reusable Scratch through
// ExtendWithScratch and LocalWithScratch instead. The wrappers keep
// the original signatures and semantics by passing a fresh Scratch.
//
// All scratch-backed kernels tolerate dirty scratch memory: every cell
// a kernel reads is written first (absolute stores, no |= into stale
// bytes), so a Scratch can be reused across calls and sequence sizes
// without clearing.
package align

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Scratch is a reusable, grow-only workspace for the DP kernels. The
// zero value is ready to use. A Scratch is not safe for concurrent
// use; share via a sync.Pool or keep one per goroutine.
//
// A Result's Cigar from LocalWithScratch aliases the Scratch's
// internal buffer: it is valid until the next call that uses the same
// Scratch.
type Scratch struct {
	h, e, f []int
	tb      []byte
	rev     Cigar
	cig     Cigar

	// rowH and rowE are the extension DP's rolling row, H and E as
	// structure-of-arrays so the row kernel loads a vector of columns
	// of each at a time; prof is its query profile. Each comes in two
	// widths: int16 (sixteen columns per vector) for the calls narrow
	// admits, int32 (eight) for the rest.
	rowH16, rowE16, prof16 []int16
	rowH, rowE, prof       []int32

	// sub is the 4x4 substitution table of scoring and pass the fused
	// int16 pass's constants for it, both rebuilt by setScoring only
	// when a call's Scoring differs from the last one's (scored
	// reports that they were built at all).
	scoring Scoring
	scored  bool
	sub     [4][4]int32
	pass    pass16
}

// lane is the element type of the extension rows.
type lane interface{ int16 | int32 }

// deadOf is the dead value of L's rows: negInf16 for int16, negInf
// for int32.
func deadOf[L lane]() L {
	return -1 << (8*unsafe.Sizeof(L(0)) - 2)
}

// grow returns buf with length n, reusing capacity when possible.
// Contents are unspecified (dirty).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// localBandedWS is the scratch-backed full/banded local DP with
// traceback. It computes the same matrices as the original localBanded
// (see align.go history / TestLocalScratchMatches) but writes every
// cell absolutely so dirty scratch memory is safe: traceback bytes are
// composed in a register and stored once, and the outside-band fill
// loops clear tb as well as h/e/f so the traceback's run-walks never
// read stale direction bits.
func localBandedWS(s *Scratch, ref, read []byte, sc Scoring, band int) Result {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return Result{}
	}
	stride := n + 1
	size := (m + 1) * stride
	s.h = grow(s.h, size)
	s.e = grow(s.e, size)
	s.f = grow(s.f, size)
	s.tb = grow(s.tb, size)
	h, e, f, tb := s.h, s.e, s.f, s.tb

	// Row 0: H=0 (local alignment may start anywhere), gap states
	// unreachable. tb row 0 is never read (traceback stops at i==0).
	for j := 0; j <= n; j++ {
		h[j] = 0
		e[j] = negInf
		f[j] = negInf
	}

	goe := sc.GapOpen + sc.GapExtend
	ge := sc.GapExtend
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
		row := i * stride
		prev := row - stride
		for j := 0; j < lo; j++ {
			h[row+j] = 0
			e[row+j] = negInf
			f[row+j] = negInf
			tb[row+j] = 0
		}
		ri := ref[i-1]
		for j := lo; j <= hi; j++ {
			ii := row + j
			var dir byte
			// E: gap in read (move down in ref).
			eo := h[prev+j] - goe
			ee := e[prev+j] - ge
			ev := eo
			if ee > eo {
				ev = ee
				dir = 1 << 2
			}
			e[ii] = ev
			// F: gap in ref (move right in read).
			fo := h[ii-1] - goe
			fe := f[ii-1] - ge
			fv := fo
			if fe > fo {
				fv = fe
				dir |= 1 << 3
			}
			f[ii] = fv
			// H: best of stop/diag/E/F.
			sub := -sc.Mismatch
			if ri == read[j-1] {
				sub = sc.Match
			}
			diag := h[prev+j-1] + sub
			hv, hsrc := 0, byte(hStop)
			if diag > hv {
				hv, hsrc = diag, hDiag
			}
			if ev > hv {
				hv, hsrc = ev, hDel
			}
			if fv > hv {
				hv, hsrc = fv, hIns
			}
			h[ii] = hv
			tb[ii] = dir | hsrc
			if hv > best {
				best, bi, bj = hv, i, j
			}
		}
		for j := hi + 1; j <= n; j++ {
			h[row+j] = 0
			e[row+j] = negInf
			f[row+j] = negInf
			tb[row+j] = 0
		}
	}
	if best == 0 {
		return Result{}
	}

	// Traceback from (bi, bj), run-length encoding into the scratch.
	rev := s.rev[:0]
	push := func(op Op) {
		if len(rev) > 0 && rev[len(rev)-1].Op == op {
			rev[len(rev)-1].Len++
		} else {
			rev = append(rev, CigarOp{op, 1})
		}
	}
	i, j := bi, bj
	for i > 0 && j > 0 {
		switch tb[i*stride+j] & 3 {
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
				cont := tb[i*stride+j]&(1<<2) != 0
				i--
				if !cont {
					break
				}
			}
		case hIns:
			for {
				push(OpI)
				cont := tb[i*stride+j]&(1<<3) != 0
				j--
				if !cont {
					break
				}
			}
		}
	}
done:
	s.rev = rev
	cig := s.cig[:0]
	for k := len(rev) - 1; k >= 0; k-- {
		cig = append(cig, rev[k])
	}
	s.cig = cig
	return Result{
		Score:   best,
		RefBeg:  i,
		RefEnd:  bi,
		ReadBeg: j,
		ReadEnd: bj,
		Cigar:   cig,
	}
}

// ExtendWithScratch is Extend using s for the rolling row, with
// BWA-MEM's band: only cells on diagonals |i-j| <= w are computed, and
// every cell outside the band (row 0 beyond column w and column 0
// below row w included) reads as -inf. A negative w disables the band.
// Like BWA-MEM's mem_chain2aln (MAX_BAND_TRY = 2), a pass whose best
// cells strayed to at least 3/4 of the band (max_off, see extendPass)
// is rerun once at 2w, and that pass is returned. The band and its
// retry are part of the scoring model; only the shrinking window below
// is a shortcut, and it is exact.
//
// Inside the band the kernel narrows further with a z-drop-aware
// shrinking window: columns whose value plus the maximum remaining
// gain (a potential of stepGain per residual diagonal step) cannot
// reach best-zdrop are excluded from subsequent rows. The exclusion
// bound guarantees an excluded cell can neither update the running
// best (which requires a strict improvement over best >= best-zdrop)
// nor flip a row's z-drop decision (both sides of the comparison stay
// below the threshold), so the returned (score, refEnd, readEnd, rows)
// tuple is byte-identical to ExtendReference at the same band.
// Shrinking engages only when zdrop >= 0 and both gap penalties are
// non-negative (gaps never gain); otherwise each row computes its whole
// band, still allocation-free.
//
// The substitution scores come from a query profile when both
// sequences are 2-bit base codes (every byte in 0..3), otherwise from a
// one-row slice filled per reference base. The rows are int16 when
// narrow admits the call and int32 otherwise; the width follows from
// that bound alone. An int16 pass over a profile runs in one assembly
// call on AVX2 hosts when both gap penalties are non-negative
// (passAVX2w16: rows, argmax, z-drop and shrink); every other pass runs
// extendPass's Go row loop, one extendRow call per row. The Scratch
// keeps the substitution table and the fused pass's constants for the
// last Scoring it saw, so a run of calls under one Scoring builds them
// once. int32
// rows are exact only while every value fits; headroom checks that
// once per call and the call panics when it does not hold, which no
// read the pipeline can deliver reaches (see headroom).
func ExtendWithScratch(s *Scratch, ref, read []byte, sc Scoring, initScore, zdrop, w int) (score, refEnd, readEnd, rows int) {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return initScore, 0, 0, 0
	}
	s.setScoring(sc)
	if narrow(m, n, sc, initScore, zdrop) {
		return extend(s, &s.rowH16, &s.rowE16, &s.prof16, ref, read, sc, initScore, zdrop, w)
	}
	if !headroom(m, n, sc, initScore) {
		panic(fmt.Sprintf("align: extension of %d x %d cells under %+v from score %d overflows int32 rows", m, n, sc, initScore))
	}
	return extend(s, &s.rowH, &s.rowE, &s.prof, ref, read, sc, initScore, zdrop, w)
}

// extend is ExtendWithScratch on non-empty sequences in the rows *h and
// *e and the profile *prof of one width, grown to fit, with s's tables
// already set for sc.
func extend[L lane](s *Scratch, h, e, prof *[]L, ref, read []byte, sc Scoring, initScore, zdrop, w int) (score, refEnd, readEnd, rows int) {
	m, n := len(ref), len(read)
	if w >= m && w >= n {
		w = -1 // no cell lies outside the band
	}
	fit(h, e, prof, n)
	twoBit := buildProfile(*prof, ref, read, &s.sub)
	var p *pass16
	if _, int16Rows := any(*h).([]int16); int16Rows && twoBit && useAVX2 && sc.GapOpen >= 0 && sc.GapExtend >= 0 {
		p = &s.pass
	}
	score, refEnd, readEnd, rows, maxOff := extendPass(*h, *e, *prof, ref, read, sc, twoBit, p, initScore, zdrop, w)
	if bandRetry(w, maxOff) {
		score, refEnd, readEnd, rows, _ = extendPass(*h, *e, *prof, ref, read, sc, twoBit, p, initScore, zdrop, 2*w)
	}
	return score, refEnd, readEnd, rows
}

// fit grows the rows *h and *e to n+1 columns and the profile *prof to
// 4n entries, each with 15 spare columns of capacity: passAVX2w16
// runs a row's last 1-15 columns as one sixteen-lane step, which reads
// up to 15 columns past the row's end.
func fit[L lane](h, e, prof *[]L, n int) {
	*h, *e, *prof = grow(*h, n+16)[:n+1], grow(*e, n+16)[:n+1], grow(*prof, 4*n+15)[:4*n]
}

// setScoring builds s.sub and the constants of s.pass for sc, unless
// they already hold sc's.
func (s *Scratch) setScoring(sc Scoring) {
	if s.scored && s.scoring == sc {
		return
	}
	s.scoring, s.scored = sc, true
	for a := range s.sub {
		for b := range s.sub[a] {
			s.sub[a][b] = int32(sc.sub(byte(a), byte(b)))
		}
	}
	s.pass.setScoring(sc)
}

// headroom reports whether an m x n extension from initScore keeps
// every value the int32 rows hold, and every intermediate of the row
// kernel, inside int32; ExtendWithScratch takes int32 rows only where
// narrow, the int16 rows' bound, fails. Each value is a maximum of
// path sums that start at initScore (the anchor and its gap-open
// boundary) or at negInf = -2^30 (cells outside the band or window)
// and add one term per row or column crossed: a substitution score,
// -GapExtend or -(GapOpen+GapExtend). Dead cells therefore fall at most one such
// term per row or column below -2^30. A path crosses at most m+n rows
// and columns, and the row kernel's scan adds at most eight GapExtend
// decays and one gap open on top, so with c the largest term
// magnitude every value lies within (m+n+10)*c of its base, and the
// bound max(|initScore|, 2^30) + (m+n+10)*c <= MaxInt32 suffices.
//
// Under BWAMEM (c = 7) every read the pipeline can deliver passes:
// ReadFASTQ caps a line at 2^26 bases, so the query has n <= 2^26
// bases, the pipeline's reference window m <= n+8 (its ExtBand), and
// the anchor |initScore| <= 2^26 (one point per read base), giving
// 2^30 + (2^27+18)*7 = 2,013,266,046 < 2^31-1.
// The bound is computed in float64 so it cannot itself overflow.
func headroom(m, n int, sc Scoring, initScore int) bool {
	return max(math.Abs(float64(initScore)), -float64(negInf))+span(m, n, sc) <= math.MaxInt32
}

// narrow reports whether an m x n extension from initScore under
// zdrop runs exactly in int16 rows, whose dead value is -2^14. Two
// bounds must hold. The first is headroom's, with that floor:
// max(|initScore|, 2^14) + (m+n+10)*c <= 32767, so no stored value,
// nor the scalar row's one-term intermediates, leaves int16; the
// vector row saturates, clamping its deeper scan intermediates to
// -32768, below every stored value. The second keeps every value
// reached from a dead cell, at most -2^14 + (m+n+10)*c, strictly below
// initScore and below the z-drop threshold initScore - zdrop, the
// lowest best - zdrop can be: max(zdrop, 0) - initScore + (m+n+10)*c <
// 2^14. Every comparison
// the pass makes (a new best, the z-drop and the shrink bound)
// then treats dead-derived values as it would at -2^30, so the result
// is the int32 rows' own; without it a negative anchor can end the
// pass on another row. Under BWAMEM (c = 7) with zdrop = 100 and a
// non-negative anchor this admits m+n <= 2,316.
func narrow(m, n int, sc Scoring, initScore, zdrop int) bool {
	s := span(m, n, sc)
	return max(math.Abs(float64(initScore)), -float64(negInf16))+s <= math.MaxInt16 &&
		float64(max(zdrop, 0))-float64(initScore)+s < -float64(negInf16)
}

// span is (m+n+10)*c, with c the largest magnitude of one DP term:
// |Match|, |Mismatch| or |GapOpen|+|GapExtend|.
func span(m, n int, sc Scoring) float64 {
	c := max(math.Abs(float64(sc.Match)), math.Abs(float64(sc.Mismatch)),
		math.Abs(float64(sc.GapOpen))+math.Abs(float64(sc.GapExtend)))
	return (float64(m) + float64(n) + 10) * c
}

// bandRetry reports whether a pass at band w whose best cells strayed
// maxOff diagonals is rerun at 2w: BWA-MEM's mem_chain2aln reruns when
// max_off reaches 3/4 of the band.
func bandRetry(w, maxOff int) bool {
	return w > 0 && maxOff >= w>>1+w>>2
}

// extendPass is one banded pass of ExtendWithScratch over rows h and
// e and the profile already in prof. maxOff is BWA-MEM's max_off: the
// largest |i-j| of a row maximum that raised the running best.
//
// Row 0's boundary and its shrink run here; with p set (int16 rows, a
// 2-bit profile, AVX2 and non-negative gap penalties; p holds the
// constants of sc) rows 1..m then run in one passAVX2w16 call,
// otherwise in the loop below, one extendRow call per row, which is
// also that call's test oracle.
//
// Neither pass follows the F (insertion) state past the window's right
// end, because under the shrink (GapOpen, GapExtend >= 0, so goe >= ge)
// it cannot reach T = best - zdrop there. Let c = endRow(i), g =
// stepGain, and P(i) the claim F(i, c+1) + min(m-i, n-c-1)*g < T.
// Column c lay outside row i-1's window for one of three reasons:
//
//   - (a) it lies past that row's band edge, c = i+w, and c+1 past
//     row i's;
//   - (b) the shrink after row i-1 dropped it: A = max(h[c], e[c],
//     h[c-1]) of row i-1 has A + (min(m-i, n-c)+1)*g < T;
//   - (c) row i-1's window ended at c-1, and P(i-1) holds: B = F(i-1,
//     c) has B + min(m-i+1, n-c)*g < T.
//
// Row i-1's F chain gives h[k] <= A + goe + (c-2-k)*ge for every column
// k < c-1 of its window (h[k] <= A at c-1 and c), or h[k] <= B + goe +
// (c-1-k)*ge; E <= H in every cell; and row i has E[k] <= h[k]-ge and
// X[k] <= max(h[k-1]+g, E[k]). So F(i, c+1), the maximum over k of
// X[k] - goe - (c-k)*ge, is at most A + g - ge, or B + g, and P(i)
// follows. T never falls between rows; int16 saturation only clamps
// upward from -32768, which narrow keeps below T.
func extendPass[L lane](h, e, prof []L, ref, read []byte, sc Scoring, twoBit bool, p *pass16, initScore, zdrop, w int) (best, bi, bj, rows, maxOff int) {
	m, n := len(ref), len(read)
	dead := deadOf[L]()

	gapO, ge := sc.GapOpen, sc.GapExtend
	goe := gapO + ge
	shrinking := zdrop >= 0 && gapO >= 0 && ge >= 0
	// The vector row needs GapOpen >= 0 for its F identity and
	// GapExtend >= 0 for its unmasked scan (see rowAVX2).
	vector := useAVX2 && gapO >= 0 && ge >= 0
	stepGain := stepGainOf(sc)

	// [beg..endValid] is the window of columns holding exact values for
	// the previous row; columns outside are stored as negInf or never
	// read. Row 0 holds the gap-open boundary up to the band's edge.
	best = initScore
	beg, endValid := 1, n
	if w >= 0 && w < n {
		endValid = w
	}
	h[0], e[0] = L(initScore), dead
	for j := 1; j <= endValid; j++ {
		h[j], e[j] = L(initScore-gapO-j*ge), dead
	}
	if shrinking && endValid >= beg {
		beg, endValid = shrink(h, e, beg, endValid, best-zdrop, m-1, stepGain)
		if beg > endValid {
			// Row 1 has no cell that can reach best-zdrop: the
			// reference computes it, observes rowBest < best-zdrop,
			// and stops with rows=1.
			return best, bi, bj, 1, 0
		}
	}
	if p != nil {
		return p.run(any(h).([]int16), any(e).([]int16), any(prof).([]int16), ref, n, shrinking,
			initScore, zdrop, w, beg, endValid)
	}

	for i := 1; i <= m; i++ {
		if w >= 0 && i-w > beg {
			beg = i - w
		}
		endRow := endValid
		if endRow < n {
			// The window may extend one column right via the diagonal;
			// that column was outside the previous row's window (and,
			// since that window ended by column i-1+w, is in the band).
			endRow++
			h[endRow], e[endRow] = dead, dead
		}
		if beg > endRow {
			// The band has left the read: this row and every later one
			// are empty, so the z-drop fires here or never.
			rows = m
			if zdrop >= 0 && negInf < best-zdrop {
				rows = i
			}
			break
		}
		hBound := dead
		if w < 0 || i <= w {
			hBound = L(initScore - gapO - i*ge)
		}
		// h[beg-1] still holds the previous row's value; column
		// beg-1 >= i-1-w lay in that row's band.
		hDiag, hLeft := h[beg-1], dead // dead: excluded column
		if beg == 1 {
			h[0] = hBound
			hLeft = hBound
		}
		var sub []L
		if twoBit {
			off := int(ref[i-1]) * n
			sub = prof[off+beg-1 : off+endRow]
		} else {
			sub = prof[beg-1 : endRow]
			ri := ref[i-1]
			for k, b := range read[beg-1 : endRow] {
				sub[k] = L(sc.sub(ri, b))
			}
		}
		rowBest := int(extendRow(h[beg:endRow+1], e[beg:endRow+1], sub, hDiag, hLeft, L(goe), L(ge), vector))
		if rowBest > best {
			// The row's first cell holding the maximum: the argmax is
			// found only on rows that raise best.
			rowArg := beg + firstIndex(h[beg:endRow+1], L(rowBest))
			best, bi, bj = rowBest, i, rowArg
			maxOff = max(maxOff, i-rowArg, rowArg-i)
		}
		rows = i
		if zdrop >= 0 && rowBest < best-zdrop {
			break
		}
		endValid = endRow
		if shrinking && i < m {
			beg, endValid = shrink(h, e, beg, endValid, best-zdrop, m-i-1, stepGain)
			if beg > endValid {
				// Next row has no viable cell: the reference computes
				// it (all its true values are below best-zdrop),
				// triggers the z-drop, and stops with rows=i+1.
				rows = i + 1
				break
			}
		}
	}
	return best, bi, bj, rows, maxOff
}

// stepGainOf is the most one diagonal step can gain under sc:
// max(Match, -Mismatch, 0).
func stepGainOf(sc Scoring) int {
	return max(sc.Match, -sc.Mismatch, 0)
}

// buildProfile fills prof (4*len(read) entries) with the query profile,
// row b holding the substitution score of reference base b against each
// read base, looked up in the 4x4 table sub, and reports true. When ref
// or read holds a byte outside 0..3 it fills nothing and reports false:
// the caller then fills one row per reference base instead.
func buildProfile[L lane](prof []L, ref, read []byte, sub *[4][4]int32) bool {
	if !isTwoBit(ref) || !isTwoBit(read) {
		return false
	}
	n := len(read)
	p0, p1, p2, p3 := prof[:n], prof[n:2*n], prof[2*n:3*n], prof[3*n:4*n]
	for j, b := range read {
		b &= 3
		p0[j], p1[j], p2[j], p3[j] = L(sub[0][b]), L(sub[1][b]), L(sub[2][b]), L(sub[3][b])
	}
	return true
}

// isTwoBit reports whether every byte of s is a 2-bit code, 0..3, testing
// eight bytes per step.
func isTwoBit(s []byte) bool {
	var or uint64
	for len(s) >= 8 {
		or |= binary.LittleEndian.Uint64(s)
		s = s[8:]
	}
	for _, b := range s {
		or |= uint64(b)
	}
	return or&^0x0303030303030303 == 0
}

// extendRow computes one row of the extension recurrence over a window
// of columns: h and e hold the previous row's H and E and receive this
// row's, sub[k] is the substitution score of column k, hDiag is the
// previous row's H one column left of the window, and hLeft is this
// row's H there. It returns the window's maximum H (the dead value if
// none exceeds it); the caller locates it (firstIndex) only when it
// raises the best.
//
// With vector set (which requires GapOpen >= 0 and GapExtend >= 0),
// int32 rows run rowAVX2 over the leading multiple of eight columns and
// the scalar loop below finishes the tail of at most seven from the
// state it hands back; otherwise the scalar loop runs the whole window.
// Both compute the same values. int16 rows take the scalar loop here:
// where their vector row applies, the pass is fused (passAVX2w16).
// Kept out of line so the scalar loop's carried state stays in
// registers.
//
//go:noinline
func extendRow[L lane](h, e, sub []L, hDiag, hLeft, goe, ge L, vector bool) (rowBest L) {
	f, rowBest := deadOf[L](), deadOf[L]()
	if h32, ok := any(h).([]int32); ok && vector && len(sub) >= 8 {
		k := len(sub) &^ 7
		b, d, l, x := rowAVX2(h32[:k], any(e).([]int32)[:k], any(sub).([]int32)[:k], int32(hDiag), int32(hLeft), int32(goe), int32(ge))
		rowBest, hDiag, hLeft, f = L(b), L(d), L(l), L(x)
		h, e, sub = h[k:], e[k:], sub[k:]
	}
	h, e = h[:len(sub)], e[:len(sub)]
	for k, sk := range sub {
		eNew := max(e[k]-ge, h[k]-goe)
		f = max(f-ge, hLeft-goe)
		hv := max(hDiag+sk, eNew, f)
		hDiag = h[k]
		h[k], e[k] = hv, eNew
		hLeft = hv
		rowBest = max(rowBest, hv)
	}
	return rowBest
}

// shrink trims the window [beg..end] of the row just computed for the
// next row against the threshold T = best - zdrop, with remR rows left
// after that next row: a column is dropped when even one maximal step
// into the next row plus the full remaining diagonal potential cannot
// reach T. Stored (possibly already-excluded) neighbours are valid
// sources for the bound because an excluded cell's descendants are
// themselves below T by induction. Columns dropped at the left end are
// stored as the dead value, since the next row reads the one left of
// its window; those dropped at the right end keep their values, since
// no row reads past its window until it grows by a column, which it
// first stores as dead.
func shrink[L lane](h, e []L, beg, end, T, remR, stepGain int) (int, int) {
	n := len(h) - 1
	dead := deadOf[L]()
	for end >= beg {
		b := int(max(h[end], e[end], h[end-1]))
		rem := remR
		if n-end < rem {
			rem = n - end
		}
		if b+stepGain+rem*stepGain >= T {
			break
		}
		end--
	}
	for beg <= end {
		b := int(max(h[beg], e[beg], h[beg-1]))
		rem := remR
		if n-beg < rem {
			rem = n - beg
		}
		if b+stepGain+rem*stepGain >= T {
			break
		}
		h[beg], e[beg] = dead, dead
		beg++
	}
	return beg, end
}

// firstIndex returns the first k with h[k] == v, or len(h) if there is
// none.
func firstIndex[L lane](h []L, v L) int {
	for k, x := range h {
		if x == v {
			return k
		}
	}
	return len(h)
}

// pass16 is one fused int16 pass (passAVX2w16). Its leading block
// holds the row kernel's constants, one sixteen-lane vector each (kMask
// three), with the scalars they derive from; setScoring builds them once
// per Scoring, and a Scratch keeps them across calls. Then come the
// pass's parameters, the window row 0 left, and the running result,
// which the kernel updates in place.
type pass16 struct {
	kGE, kGE2, kGE4 [16]int16 // ge, 2ge, 4ge
	kJoin           [16]int16 // ge*(lane-7) in the high half, 0 in the low
	kLane           [16]int16 // ge*(lane+1)
	kGOE, kGapO     [16]int16
	kMin            [16]int16 // -32768, the scan's shift-in
	kDead           [16]int16 // negInf16
	kShuf           [16]int16 // VPSHUFB mask broadcasting word 7 of each half
	kStep           [16]int16 // stepGain*lane
	// kMask is sixteen 0s, sixteen -1s and sixteen 0s: the sixteen words
	// from word 16-k set lanes k..15, those from word 32-k lanes 0..k-1.
	kMask [48]int16

	ge, gapO, stepGain int

	h, e      *int16
	prof      [4]*int16 // the profile row of each reference base
	ref       *byte
	shrinking bool

	m, n, w, zdrop, hBase int // hBase = initScore - GapOpen
	beg, endValid         int

	best, bi, bj, rows, maxOff int
}

// setScoring builds p's constants for sc.
func (p *pass16) setScoring(sc Scoring) {
	ge, sg := sc.GapExtend, stepGainOf(sc)
	p.ge, p.gapO, p.stepGain = ge, sc.GapOpen, sg
	for l := range 16 {
		p.kGE[l], p.kGE2[l], p.kGE4[l] = int16(ge), int16(2*ge), int16(4*ge)
		p.kJoin[l] = int16(max(l-7, 0) * ge)
		p.kLane[l] = int16((l + 1) * ge)
		p.kGOE[l], p.kGapO[l] = int16(sc.GapOpen+ge), int16(sc.GapOpen)
		p.kMin[l] = math.MinInt16
		p.kDead[l] = negInf16
		p.kShuf[l] = 0x0f0e
		p.kStep[l] = int16(l * sg)
		p.kMask[16+l] = -1
	}
}

// run runs rows 1..m of an int16 pass of extendPass in one passAVX2w16
// call, from the window [beg..endValid] row 0 left, over the 2-bit
// profile prof of a read of n bases, with p's constants set for the
// pass's Scoring. h, e and prof must have the spare capacity fit
// gives them.
func (p *pass16) run(h, e, prof []int16, ref []byte, n int, shrinking bool, initScore, zdrop, w, beg, endValid int) (best, bi, bj, rows, maxOff int) {
	_, _, _ = h[:n+16], e[:n+16], prof[:4*n+15]
	p.h, p.e, p.ref, p.shrinking = &h[0], &e[0], &ref[0], shrinking
	for b := range p.prof {
		p.prof[b] = &prof[b*n]
	}
	p.m, p.n, p.w, p.zdrop, p.hBase = len(ref), n, w, zdrop, initScore-p.gapO
	p.beg, p.endValid = beg, endValid
	p.best, p.bi, p.bj, p.rows, p.maxOff = initScore, 0, 0, 0, 0
	passAVX2w16(p)
	return p.best, p.bi, p.bj, p.rows, p.maxOff
}
