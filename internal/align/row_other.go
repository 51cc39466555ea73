//go:build !amd64

package align

// useAVX2 is false off amd64: every pass runs extendPass's row loop
// with extendRow's scalar loop.
const useAVX2 = false

func rowAVX2(h, e, sub []int32, hDiag, hLeft, goe, ge int32) (best, diag, last, f int32) {
	panic("align: rowAVX2 is amd64 only")
}

func passAVX2w16(p *pass16) {
	panic("align: passAVX2w16 is amd64 only")
}
