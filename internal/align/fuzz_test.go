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
