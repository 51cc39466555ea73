// Package systolic models the Smith-Waterman systolic array used by
// NvWa's extension units (EUs), following the classic design the paper
// describes in Fig. 7 (Darwin-style): the query is split into blocks of
// P bases placed on P processing elements, and the reference streams
// through the array one base per cycle.
//
// Array.Run is the one implementation: it executes the wavefront
// schedule cycle by cycle, one inner step per (cycle, PE) pair. It is
// functionally exact, which is how the paper's no-loss-of-accuracy
// property is verified: its scores equal the software dynamic
// programming in package align (align.Local in ModeLocal,
// align.ExtendReference without z-drop in ModeExtend), pinned by
// FuzzSystolicVsSoftwareDP.
//
// The simulator does not run the array per task. The EUs charge the
// matrix-fill latency through Latency, the paper's Formula 3,
//
//	L = (R + P - 1) * ceil(Q / P)
//
// and extend functionally through package align. Run's Cycles equals
// Latency by construction, so the two agree.
package systolic

import "nvwa/internal/align"

// Mode selects the DP variant the array executes.
type Mode int

const (
	// ModeLocal is standard local alignment (H clamped at 0).
	ModeLocal Mode = iota
	// ModeExtend is BWA-MEM-style seed extension anchored at (0,0)
	// with an initial score.
	ModeExtend
)

// Latency returns the matrix-fill latency in cycles of aligning a
// reference of length r against a query of length q on p PEs
// (paper Formula 3). Zero-length inputs take no cycles.
func Latency(r, q, p int) int {
	if r <= 0 || q <= 0 || p <= 0 {
		return 0
	}
	blocks := (q + p - 1) / p
	return (r + p - 1) * blocks
}

// TracebackLatency returns the constant trace-back cost for a given
// task (paper footnote 4: independent of the number of PEs). It is the
// storage-free reference model; TracebackModel layers pointer-matrix
// SRAM capacity and spill read-out on top of this walk, and its zero
// value charges exactly this constant over the alignment spans.
func TracebackLatency(r, q int) int { return r + q }

// Result reports one array execution.
type Result struct {
	// Score is the best alignment score (identical to package align).
	Score int
	// RefEnd/ReadEnd are the coordinates of the best-scoring cell
	// (meaningful in ModeExtend; the end of the local alignment in
	// ModeLocal).
	RefEnd, ReadEnd int
	// Cycles is the matrix-fill latency; always equals Latency(R,Q,P).
	Cycles int
	// BusyPECycles counts PE-cycles that computed a cell.
	BusyPECycles int
}

// Utilization returns BusyPECycles / (P * Cycles) for an array of p PEs.
func (r Result) Utilization(p int) float64 {
	if r.Cycles == 0 || p == 0 {
		return 0
	}
	return float64(r.BusyPECycles) / float64(p*r.Cycles)
}

// Array is a systolic array of P processing elements.
type Array struct {
	// PEs is the number of processing elements.
	PEs int
	// Scoring is the alignment scoring scheme loaded into the PEs.
	Scoring align.Scoring
}

const negInf = int(-1) << 30

// Run streams ref through the array against query, executing the
// wavefront schedule cycle by cycle. initScore seeds ModeExtend
// (ignored by ModeLocal).
func (a *Array) Run(ref, query []byte, mode Mode, initScore int) Result {
	p := a.PEs
	r, q := len(ref), len(query)
	res := Result{Cycles: Latency(r, q, p)}
	if r == 0 || q == 0 || p == 0 {
		if mode == ModeExtend {
			res.Score = initScore
		}
		return res
	}
	sc := a.Scoring

	// Boundary row stored in the inter-block SRAM: H and F of the row
	// above the current block, indexed by reference column 0..r.
	topH := make([]int, r+1)
	topF := make([]int, r+1)
	for j := 0; j <= r; j++ {
		topF[j] = negInf
		if mode == ModeExtend {
			if j == 0 {
				topH[j] = initScore
			} else {
				topH[j] = initScore - sc.GapOpen - j*sc.GapExtend
			}
		}
	}

	best, bi, bj := 0, 0, 0
	if mode == ModeExtend {
		best = initScore
	}

	blocks := (q + p - 1) / p
	// Per-PE state within a pass.
	curH := make([]int, p) // H[i][j] just produced by PE k
	curE := make([]int, p) // E[i][j] (horizontal gap state, lives in the PE)
	curF := make([]int, p) // F[i][j] (vertical gap state, passed downstream)
	diag := make([]int, p) // H[i-1][j-1] latched from upstream
	upH := make([]int, p)  // H[i-1][j] from upstream last cycle
	upF := make([]int, p)  // F[i-1][j] from upstream last cycle
	newTopH := make([]int, r+1)
	newTopF := make([]int, r+1)

	for b := 0; b < blocks; b++ {
		base := b * p // query rows [base, base+p)
		active := q - base
		if active > p {
			active = p
		}
		// Reset PE registers for the pass.
		for k := 0; k < p; k++ {
			i := base + k + 1 // 1-indexed query row of PE k
			// Left boundary H[i][0].
			leftH := 0
			if mode == ModeExtend {
				leftH = initScore - sc.GapOpen - i*sc.GapExtend
			}
			curH[k] = leftH
			curE[k] = negInf
			curF[k] = negInf
			// First diagonal input of PE k is H[i-1][0], the left
			// boundary of the row above (PE 0 reads the SRAM instead).
			diag[k] = 0
			if mode == ModeExtend {
				diag[k] = initScore - sc.GapOpen - (i-1)*sc.GapExtend
			}
			upH[k] = 0
			upF[k] = negInf
		}
		// diag/up for PE 0 come from the boundary SRAM; seed its latches.
		diag[0] = topH[0]
		newTopH[0] = 0
		if mode == ModeExtend {
			newTopH[0] = initScore - sc.GapOpen - (base+active)*sc.GapExtend
		}
		newTopF[0] = negInf

		passCycles := r + p - 1
		for c := 0; c < passCycles; c++ {
			// Process PEs from the deepest active one up so each reads
			// its upstream neighbour's previous-cycle outputs before
			// they are overwritten.
			for k := active - 1; k >= 0; k-- {
				j := c - k + 1 // reference column this PE works on
				if j < 1 || j > r {
					continue
				}
				res.BusyPECycles++
				i := base + k + 1
				var hUp, fUp, hDiag int
				if k == 0 {
					hUp = topH[j]
					fUp = topF[j]
					hDiag = topH[j-1]
				} else {
					hUp = upH[k-1]
					fUp = upF[k-1]
					hDiag = diag[k]
				}
				e := max2(curH[k]-sc.GapOpen-sc.GapExtend, curE[k]-sc.GapExtend)
				f := max2(hUp-sc.GapOpen-sc.GapExtend, fUp-sc.GapExtend)
				h := hDiag
				if ref[j-1] == query[i-1] {
					h += sc.Match
				} else {
					h -= sc.Mismatch
				}
				h = max2(h, max2(e, f))
				if mode == ModeLocal && h < 0 {
					h = 0
				}
				// Latch upstream H for next cycle's diagonal.
				if k > 0 {
					diag[k] = upH[k-1]
				}
				curH[k], curE[k], curF[k] = h, e, f
				if h > best {
					best, bi, bj = h, j, i
				}
				// The deepest active PE writes the boundary row for the
				// next block.
				if k == active-1 {
					newTopH[j] = h
					newTopF[j] = f
				}
			}
			// Publish this cycle's outputs to downstream PEs.
			for k := 0; k < active; k++ {
				upH[k] = curH[k]
				upF[k] = curF[k]
			}
		}
		topH, newTopH = newTopH, topH
		topF, newTopF = newTopF, topF
	}
	res.Score = best
	res.RefEnd = bi
	res.ReadEnd = bj
	return res
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
