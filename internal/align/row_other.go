//go:build !amd64

package align

// useAVX2 is false off amd64: extendRow runs its scalar loop.
const useAVX2 = false

func rowAVX2(h, e, sub []int32, hDiag, hLeft, goe, ge int32) (best, diag, last, f int32) {
	panic("align: rowAVX2 is amd64 only")
}
