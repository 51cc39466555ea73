package align

import "testing"

// FuzzExtendBandedVsFull is the CI differential fuzz target for the
// extension kernel: on arbitrary sequences, scoring schemes, anchor
// scores, z-drop thresholds and bands, ExtendWithScratch must return
// the same (score, refEnd, readEnd, rows) tuple as the full-row oracle
// at that band with BWA-MEM's 2w retry composed over it. rows is
// included because the EU cost model charges for it — the kernel must
// terminate on exactly the same row.
//
// band selects w from {-1, 0..8, 100}: unbanded, narrow bands that
// bind and retry on the short fuzzed pairs, and the pipeline default.
// With fold set both sequences are mapped to 2-bit codes (b&3), so the
// query-profile path is fuzzed as hard as the per-row substitution
// fill that raw bytes take.
func FuzzExtendBandedVsFull(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("ACGTACGTACGT"), uint8(1), uint8(4), uint8(6), uint8(1), uint8(19), int16(50), false, uint8(0))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), []byte("CCCCCCCC"), uint8(2), uint8(3), uint8(0), uint8(2), uint8(40), int16(0), false, uint8(3))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACA"), uint8(5), uint8(0), uint8(7), uint8(3), uint8(0), int16(-1), false, uint8(1))
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("ACGTACGTACGT"), uint8(1), uint8(4), uint8(6), uint8(1), uint8(19), int16(50), true, uint8(10))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACA"), uint8(5), uint8(0), uint8(7), uint8(3), uint8(0), int16(-1), true, uint8(5))
	f.Add([]byte("ACGTTTTTTTTACGTACGT"), []byte("ACGTACGTACGT"), uint8(1), uint8(4), uint8(6), uint8(1), uint8(19), int16(-1), true, uint8(4))
	f.Fuzz(func(t *testing.T, ref, read []byte, match, mis, gapO, gapE, init uint8, zdrop int16, fold bool, band uint8) {
		if len(ref) > 300 || len(read) > 300 {
			return
		}
		if fold {
			ref, read = fold2Bit(ref), fold2Bit(read)
		}
		sc := Scoring{
			Match:     1 + int(match)%8,
			Mismatch:  int(mis) % 10,
			GapOpen:   int(gapO) % 12,
			GapExtend: int(gapE) % 5,
		}
		zd := int(zdrop)
		if zd < -1 {
			zd = zd % 128 // keep thresholds in a realistic range, incl. negatives
		}
		w := int(band)%11 - 1 // -1, 0..8
		if w == 9 {
			w = 100
		}
		var s Scratch
		ws, wi, wj, wrows := ExtendWithScratch(&s, ref, read, sc, int(init), zd, w)
		rs, ri, rj, rrows, _ := ExtendBandReference(ref, read, sc, int(init), zd, w)
		if ws != rs || wi != ri || wj != rj || wrows != rrows {
			t.Fatalf("kernel=(%d,%d,%d,%d) reference=(%d,%d,%d,%d) sc=%+v init=%d zdrop=%d w=%d ref=%q read=%q",
				ws, wi, wj, wrows, rs, ri, rj, rrows, sc, init, zd, w, ref, read)
		}
	})
}

// fold2Bit returns a copy of s with every byte mapped to a 2-bit code.
func fold2Bit(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = b & 3
	}
	return out
}

// FuzzExtendRowVector is the differential fuzz target for the vector
// row: on windows of 0-80 columns, extendRow with the AVX2 kernel (and
// its scalar tail) must leave the same H and E rows and return the
// same (rowBest, hLast, f) as the scalar loop alone. Each column's
// previous-row H and E, and the boundary hDiag and hLeft, are either
// live scores or dead values just below negInf, where the kernel's
// decays run closest to the int32 floor; GapOpen and GapExtend are
// drawn non-negative, the vector row's domain.
func FuzzExtendRowVector(f *testing.F) {
	f.Add(uint8(17), uint8(6), uint8(1), int16(20), int16(-3), false, false, []byte{1, 2, 3, 200, 7, 9, 4, 130, 66})
	f.Add(uint8(8), uint8(0), uint8(0), int16(0), int16(0), true, true, []byte{255, 255, 255})
	f.Add(uint8(80), uint8(11), uint8(4), int16(90), int16(90), false, true, []byte{40, 10, 1, 41, 11, 2, 200, 201, 3})
	f.Fuzz(func(t *testing.T, width, gapO, gapE uint8, hDiag, hLeft int16, deadDiag, deadLeft bool, cells []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 row kernel on this host")
		}
		n := int(width) % 81
		ge := int32(gapE % 5)
		goe := int32(gapO%12) + ge
		// val maps a byte to a live score in -32..95 or, with its top
		// bit set, a dead value up to 127 below negInf.
		val := func(b byte) int32 {
			if b&0x80 != 0 {
				return negInf32 - int32(b&0x7f)
			}
			return int32(b) - 32
		}
		boundary := func(x int16, dead bool) int32 {
			if dead {
				return negInf32 - int32(uint16(x)%128)
			}
			return int32(x)
		}
		h, e, sub := make([]int32, n), make([]int32, n), make([]int32, n)
		for k := 0; k < n; k++ {
			var b [3]byte
			for i := range b {
				if len(cells) > 0 {
					b[i] = cells[(3*k+i)%len(cells)] + byte(k)
				}
			}
			h[k], e[k], sub[k] = val(b[0]), val(b[1]), int32(int8(b[2]))%16
		}
		hv, ev := append([]int32(nil), h...), append([]int32(nil), e...)
		hD, hL := boundary(hDiag, deadDiag), boundary(hLeft, deadLeft)
		vb, vh, vf := extendRow(hv, ev, sub, hD, hL, goe, ge, true)
		sb, sh, sf := extendRow(h, e, sub, hD, hL, goe, ge, false)
		if vb != sb || vh != sh || vf != sf {
			t.Fatalf("n=%d goe=%d ge=%d hDiag=%d hLeft=%d: vector (best, hLast, f) = (%d,%d,%d), scalar (%d,%d,%d)",
				n, goe, ge, hD, hL, vb, vh, vf, sb, sh, sf)
		}
		for k := range h {
			if hv[k] != h[k] || ev[k] != e[k] {
				t.Fatalf("n=%d goe=%d ge=%d: column %d vector (H, E) = (%d,%d), scalar (%d,%d)",
					n, goe, ge, k, hv[k], ev[k], h[k], e[k])
			}
		}
	})
}
