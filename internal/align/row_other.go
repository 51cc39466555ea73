//go:build !amd64

package align

// useAVX2 is false off amd64: extendRow runs its scalar loop.
const useAVX2 = false

func rowAVX2(h, e, sub []int32, hDiag, hLeft, goe, ge int32) (best, diag, last, f int32) {
	panic("align: rowAVX2 is amd64 only")
}

func rowAVX2w16(h, e, sub []int16, hDiag, hLeft, goe, ge int16) (best, diag, last, f int16) {
	panic("align: rowAVX2w16 is amd64 only")
}

func firstEq16(h []int16, v int16) int {
	panic("align: firstEq16 is amd64 only")
}
