// Scratch-backed kernel variants. The package-level entry points
// (Local, LocalBanded, Extend) allocate their DP state on every call;
// at the simulator's scale those matrices are rebuilt thousands of
// times per figure, so the hot paths thread a reusable Scratch through
// ExtendWithScratch instead. The wrappers keep the original signatures
// and semantics by passing a fresh Scratch.
//
// All scratch-backed kernels tolerate dirty scratch memory: every cell
// a kernel reads is written first (absolute stores, no |= into stale
// bytes), so a Scratch can be reused across calls and sequence sizes
// without clearing.
package align

// Scratch is a reusable, grow-only workspace for the DP kernels. The
// zero value is ready to use. A Scratch is not safe for concurrent
// use; share via a sync.Pool or keep one per goroutine.
//
// A Result's Cigar from localBandedWS aliases the Scratch's internal
// buffer: it is valid until the next call that uses the same Scratch.
type Scratch struct {
	h, e, f []int
	tb      []byte
	rev     Cigar
	cig     Cigar

	// cells is the extension DP's rolling row, H and E interleaved so
	// one cell's state shares a cache line; prof is its query profile.
	cells []cell
	prof  []int
}

// cell is one column of the extension DP's rolling row: H and E of the
// most recently computed row.
type cell struct{ h, e int }

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

// ExtendWithScratch is Extend using s for the rolling row, with a
// z-drop-aware shrinking band: columns whose value plus the maximum
// remaining gain (a potential of stepGain per residual diagonal step)
// cannot reach best-zdrop are excluded from subsequent rows. The
// exclusion bound guarantees an excluded cell can neither update the
// running best (which requires a strict improvement over best >=
// best-zdrop) nor flip a row's z-drop decision (both sides of the
// comparison stay below the threshold), so the returned (score,
// refEnd, readEnd, rows) tuple is byte-identical to ExtendReference.
// Band shrinking engages only when zdrop >= 0 and both gap penalties
// are non-negative (gaps never gain); otherwise the kernel runs the
// full-row recurrence, still allocation-free.
//
// Each row's window is computed by extendRow over a substitution slice:
// a row of the query profile when both sequences are 2-bit base codes
// (every byte in 0..3), otherwise a one-row slice filled for that
// reference base.
func ExtendWithScratch(s *Scratch, ref, read []byte, sc Scoring, initScore, zdrop int) (score, refEnd, readEnd, rows int) {
	m, n := len(ref), len(read)
	if m == 0 || n == 0 {
		return initScore, 0, 0, 0
	}
	s.cells = grow(s.cells, n+1)
	s.prof = grow(s.prof, 4*n)
	cells, prof := s.cells, s.prof
	twoBit := buildProfile(prof, ref, read, sc)

	gapO, ge := sc.GapOpen, sc.GapExtend
	goe := gapO + ge
	banded := zdrop >= 0 && gapO >= 0 && ge >= 0
	stepGain := sc.Match
	if -sc.Mismatch > stepGain {
		stepGain = -sc.Mismatch
	}
	if stepGain < 0 {
		stepGain = 0
	}

	best, bi, bj := initScore, 0, 0
	cells[0] = cell{initScore, negInf}
	for j := 1; j <= n; j++ {
		cells[j] = cell{initScore - gapO - j*ge, negInf}
	}

	// [beg..endValid] is the window of columns holding exact values for
	// the previous row; columns outside are stored as negInf.
	beg, endValid := 1, n
	if banded {
		beg, endValid = shrink(cells, beg, endValid, best-zdrop, m-1, stepGain)
		if beg > endValid {
			// Row 1 has no cell that can reach best-zdrop: the
			// reference computes it, observes rowBest < best-zdrop,
			// and stops with rows=1.
			return best, bi, bj, 1
		}
	}

	for i := 1; i <= m; i++ {
		hBound := initScore - gapO - i*ge
		hDiag, hLeft := cells[beg-1].h, negInf // negInf: excluded column
		if beg == 1 {
			cells[0].h = hBound
			hLeft = hBound
		}
		endRow := endValid
		if endRow < n {
			// The window may extend one column right via the diagonal;
			// that column was outside the previous row's window.
			endRow++
			cells[endRow] = cell{negInf, negInf}
		}
		var sub []int
		if twoBit {
			off := int(ref[i-1]) * n
			sub = prof[off+beg-1 : off+endRow]
		} else {
			sub = prof[beg-1 : endRow]
			ri := ref[i-1]
			for k, b := range read[beg-1 : endRow] {
				sub[k] = sc.sub(ri, b)
			}
		}
		rowBest, arg, hLeft, f := extendRow(cells[beg:endRow+1], sub, hDiag, hLeft, goe, ge)
		if rowBest > best {
			best, bi, bj = rowBest, i, beg+arg
		}
		endRowValid := endRow
		if banded && endRow < n {
			// F spill: the insertion state can carry value rightwards
			// past the window; follow it while it can still reach T.
			T := best - zdrop
			remR := m - i
			for j := endRow + 1; j <= n; j++ {
				f -= ge
				if fo := hLeft - goe; fo > f {
					f = fo
				}
				rem := remR
				if n-j < rem {
					rem = n - j
				}
				if f+rem*stepGain < T {
					break
				}
				cells[j] = cell{f, negInf}
				hLeft = f
				if f > best {
					best, bi, bj = f, i, j
				}
				if f > rowBest {
					rowBest = f
				}
				endRowValid = j
			}
		}
		rows = i
		if zdrop >= 0 && rowBest < best-zdrop {
			break
		}
		endValid = endRowValid
		if banded && i < m {
			beg, endValid = shrink(cells, beg, endValid, best-zdrop, m-i-1, stepGain)
			if beg > endValid {
				// Next row has no viable cell: the reference computes
				// it (all its true values are below best-zdrop),
				// triggers the z-drop, and stops with rows=i+1.
				rows = i + 1
				break
			}
		}
	}
	return best, bi, bj, rows
}

// buildProfile fills prof (4*len(read) entries) with the query profile,
// row b holding the substitution score of reference base b against each
// read base, and reports true. When ref or read holds a byte outside
// 0..3 it fills nothing and reports false: the caller then fills one
// row per reference base instead.
func buildProfile(prof []int, ref, read []byte, sc Scoring) bool {
	var or byte
	for _, b := range ref {
		or |= b
	}
	for _, b := range read {
		or |= b
	}
	if or > 3 {
		return false
	}
	n := len(read)
	for b := 0; b < 4; b++ {
		row := prof[b*n : (b+1)*n]
		for j, rb := range read {
			row[j] = sc.sub(byte(b), rb)
		}
	}
	return true
}

// extendRow computes one row of the extension recurrence over a window
// of columns: cells holds the previous row's H/E and receives this
// row's, sub[k] is the substitution score of cells[k]'s column, hDiag
// is the previous row's H one column left of the window, and hLeft is
// this row's H there. It returns the window's maximum H (negInf if none
// exceeds it) with the offset of its first occurrence, and the H and F
// of the window's last column for the F spill. Kept out of line so its
// loop-carried state stays in registers.
//
//go:noinline
func extendRow(cells []cell, sub []int, hDiag, hLeft, goe, ge int) (rowBest, arg, hLast, f int) {
	f, rowBest = negInf, negInf
	cells = cells[:len(sub)]
	for k, sk := range sub {
		c := &cells[k]
		eNew := c.e - ge
		if eo := c.h - goe; eo > eNew {
			eNew = eo
		}
		f -= ge
		if fo := hLeft - goe; fo > f {
			f = fo
		}
		hv := hDiag + sk
		hDiag = c.h
		if eNew > hv {
			hv = eNew
		}
		if f > hv {
			hv = f
		}
		c.h, c.e = hv, eNew
		hLeft = hv
		if hv > rowBest {
			rowBest, arg = hv, k
		}
	}
	return rowBest, arg, hLeft, f
}

// shrink trims the window [beg..end] of the row just computed for the
// next row against the threshold T = best - zdrop, with remR rows left
// after that next row: a column is dropped (stored as negInf) when even
// one maximal step into the next row plus the full remaining diagonal
// potential cannot reach T. Stored (possibly already-excluded)
// neighbours are valid sources for the bound because an excluded
// cell's descendants are themselves below T by induction.
func shrink(cells []cell, beg, end, T, remR, stepGain int) (int, int) {
	n := len(cells) - 1
	for end >= beg {
		c := cells[end]
		b := c.h
		if c.e > b {
			b = c.e
		}
		if h := cells[end-1].h; h > b {
			b = h
		}
		rem := remR
		if n-end < rem {
			rem = n - end
		}
		if b+stepGain+rem*stepGain >= T {
			break
		}
		cells[end] = cell{negInf, negInf}
		end--
	}
	for beg <= end {
		c := cells[beg]
		b := c.h
		if c.e > b {
			b = c.e
		}
		if h := cells[beg-1].h; h > b {
			b = h
		}
		rem := remR
		if n-beg < rem {
			rem = n - beg
		}
		if b+stepGain+rem*stepGain >= T {
			break
		}
		cells[beg] = cell{negInf, negInf}
		beg++
	}
	return beg, end
}
