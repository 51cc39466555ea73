package align

import (
	"math/rand"
	"testing"
)

// extendSink keeps the benchmarked call's result live.
var extendSink int

// BenchmarkExtendWithScratch times the extension kernel on flanks shaped
// like the pipeline's: a 2-bit read of 101 bp, 1 kbp or 3 kbp (past
// narrow's bound, so int32 rows) copied from its reference window (8
// bases longer, the pipeline's ExtBand) with 5% substitutions and 2%
// indels, extended from a seed score of 20 with z-drop 100 under BWAMEM
// at the pipeline's band, w = 100, and 1 kbp once more at w = 16, where
// rows are two vectors and a column wide. Each op is one extension,
// cycling over 64 flanks on one warm Scratch. ns/cell divides the time
// by the band cells of the rows each extension computed, so the row
// kernel's cost per cell reads off directly; ns/row divides it by those
// rows, so a narrow band shows the fixed cost of a row.
//
//	go test -run '^$' -bench ExtendWithScratch -benchtime 2s ./internal/align
func BenchmarkExtendWithScratch(b *testing.B) {
	const flanks = 64
	for _, bc := range []struct {
		name string
		n, w int
	}{{"101bp", 101, 100}, {"1kbp", 1000, 100}, {"1kbp-w16", 1000, 16}, {"3kbp", 3000, 100}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2][]byte, flanks)
			sc := BWAMEM()
			var s Scratch
			cells, rows := 0, 0
			for i := range pairs {
				ref := randomSeq(rng, bc.n+8)
				read := mutatedCopy(rng, ref[:bc.n], bc.n*5/100, bc.n*2/100)
				pairs[i] = [2][]byte{ref, read}
				_, _, _, r := ExtendWithScratch(&s, ref, read, sc, 20, 100, bc.w)
				cells += bandCells(r, len(read), bc.w)
				rows += r
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%flanks]
				extendSink, _, _, _ = ExtendWithScratch(&s, p[0], p[1], sc, 20, 100, bc.w)
			}
			perFlank := float64(b.Elapsed().Nanoseconds()) / float64(b.N) * flanks
			b.ReportMetric(perFlank/float64(cells), "ns/cell")
			b.ReportMetric(perFlank/float64(rows), "ns/row")
		})
	}
}

// bandCells counts the cells of rows 1..rows of an n-column DP that lie
// on diagonals |i-j| <= w.
func bandCells(rows, n, w int) int {
	cells := 0
	for i := 1; i <= rows; i++ {
		cells += min(n, i+w) - max(1, i-w) + 1
	}
	return cells
}
