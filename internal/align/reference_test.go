package align

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
