package kernbench

import "testing"

// BenchmarkKernels runs every before/after kernel pair, e.g.
//
//	go test -bench 'BenchmarkKernels/align.Extend' ./internal/kernbench
func BenchmarkKernels(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Kernel+"/before", c.Before)
		b.Run(c.Kernel+"/after", c.After)
	}
}

// TestCasesRun smoke-tests every benchmark body with b.N = 1 so a
// broken case fails `go test` rather than only `-bench`.
func TestCasesRun(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Kernel, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				if b.N > 1 { // keep the smoke test cheap
					b.Skip()
				}
				c.Before(b)
			})
			_ = r
			r = testing.Benchmark(func(b *testing.B) {
				if b.N > 1 {
					b.Skip()
				}
				c.After(b)
			})
			_ = r
		})
	}
}
