package align

// useAVX2 selects rowAVX2 for the extension row: the CPU has AVX2 and
// the OS saves the YMM registers.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// rowAVX2 runs extendRow's recurrence over len(h) columns, a positive
// multiple of eight, eight columns per vector, and returns the row
// maximum over them plus the state the scalar loop continues from: the
// previous row's H, this row's H and this row's F at the last column.
// It requires GapOpen >= 0 and GapExtend >= 0.
//
//go:noescape
func rowAVX2(h, e, sub []int32, hDiag, hLeft, goe, ge int32) (best, diag, last, f int32)

// rowAVX2w16 is rowAVX2 over int16 rows, sixteen columns per vector:
// len(h) is a positive multiple of eight, and an odd eighth runs as one
// 8-lane step.
//
//go:noescape
func rowAVX2w16(h, e, sub []int16, hDiag, hLeft, goe, ge int16) (best, diag, last, f int16)

// firstEq16 returns the first k with h[k] == v, or len(h) if there is
// none.
//
//go:noescape
func firstEq16(h []int16, v int16) int

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo uint32)
