package systolic

import (
	"bytes"
	"testing"

	"nvwa/internal/align"
)

// FuzzSystolicVsSoftwareDP is the array's accuracy oracle: on non-empty
// fuzzed ref/query pairs folded to 2-bit codes, with 1 to 128 PEs and
// BWA-MEM scoring, the cycle-exact wavefront must score exactly like
// the software DP in both modes (align.Local for ModeLocal,
// align.ExtendReference without z-drop or band for ModeExtend), take exactly
// Formula 3's cycles, and keep a PE busy for exactly one cycle per
// matrix cell. The seed corpus holds tie-heavy and degenerate shapes:
// mono-base repeats (maximal score ties), all-mismatch extension, a
// single PE, more PEs than query bases, single bases and a tandem
// repeat.
func FuzzSystolicVsSoftwareDP(f *testing.F) {
	rep := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	f.Add(rep(0, 60), rep(0, 50), uint8(8), uint8(10))
	f.Add(rep(0, 40), rep(1, 40), uint8(16), uint8(25))
	f.Add(rep(2, 30), rep(2, 30), uint8(1), uint8(0))
	f.Add(rep(3, 20), rep(3, 5), uint8(64), uint8(0))
	f.Add([]byte{0}, []byte{0}, uint8(4), uint8(0))
	f.Add([]byte("ACACACACACACACACACAC"), []byte("ACACACACAC"), uint8(3), uint8(0))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACA"), uint8(127), uint8(30))
	f.Fuzz(func(t *testing.T, rawRef, rawQuery []byte, rawP, init uint8) {
		if len(rawRef) == 0 || len(rawQuery) == 0 || len(rawRef) > 256 || len(rawQuery) > 256 {
			return
		}
		ref := make([]byte, len(rawRef))
		for i, b := range rawRef {
			ref[i] = b & 3
		}
		query := make([]byte, len(rawQuery))
		for i, b := range rawQuery {
			query[i] = b & 3
		}
		sc := align.BWAMEM()
		arr := &Array{PEs: 1 + int(rawP)%128, Scoring: sc}
		r, q, p := len(ref), len(query), arr.PEs

		for _, mode := range []Mode{ModeLocal, ModeExtend} {
			got := arr.Run(ref, query, mode, int(init))
			var want int
			if mode == ModeLocal {
				want = align.Local(ref, query, sc).Score
			} else {
				want, _, _, _, _ = align.ExtendReference(ref, query, sc, int(init), -1, -1)
			}
			if got.Score != want {
				t.Fatalf("mode %d p=%d init=%d: array score %d, software DP %d (ref=%v query=%v)",
					mode, p, init, got.Score, want, ref, query)
			}
			if lat := Latency(r, q, p); got.Cycles != lat {
				t.Fatalf("mode %d p=%d: %d cycles, Formula 3 gives %d", mode, p, got.Cycles, lat)
			}
			if got.BusyPECycles != r*q {
				t.Fatalf("mode %d p=%d: %d busy PE-cycles, want r*q = %d", mode, p, got.BusyPECycles, r*q)
			}
		}
	})
}
