package kernbench

import (
	"reflect"
	"testing"

	"nvwa/internal/fmindex"
)

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

// TestStepwiseSeederMatchesLUT pins the fmindex.Seeds/LUT row's two
// sides to the same output: the 1-mer table only removes the jump.
func TestStepwiseSeederMatchesLUT(t *testing.T) {
	lut, reads := seedingData()
	step, _ := stepwiseSeedingData()
	for i, r := range reads {
		var sa, sb fmindex.Stats
		a := lut.Seeds(r, 15, 16, 8, &sa)
		b := step.Seeds(r, 15, 16, 8, &sb)
		if !reflect.DeepEqual(a, b) || sa != sb {
			t.Fatalf("read %d: stepwise seeding diverges from the LUT path", i)
		}
	}
}
