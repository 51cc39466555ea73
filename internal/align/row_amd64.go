package align

// useAVX2 selects the AVX2 extension kernels (rowAVX2, passAVX2w16):
// the CPU has AVX2 and the OS saves the YMM registers.
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

// passAVX2w16 runs rows 1..p.m of an int16 extension pass, the loop
// of extendPass with extendRow's recurrence in sixteen int16 lanes, in
// one call: per row the band step and one-column window growth, the
// row (whole vectors, then its last 1-15 columns as one masked
// sixteen-lane step), the first row-major argmax with max_off, the
// z-drop test and the shrink, sixteen columns per compare at each end.
// It reads the constants, parameters and window from p and leaves the
// pass's result there. It requires GapOpen >= 0 and GapExtend >= 0, and
// h, e and the profile rows must hold 15 columns past n (see fit).
//
//go:noescape
func passAVX2w16(p *pass16)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo uint32)
