package align

import (
	"math/rand"
	"testing"
)

// FuzzExtendBandedVsFull is the CI differential fuzz target for the
// extension kernel: on arbitrary sequences, scoring schemes, anchor
// scores, z-drop thresholds and bands, ExtendWithScratch must return
// the same (score, refEnd, readEnd, rows) tuple as the full-row oracle
// at that band with BWA-MEM's 2w retry composed over it, and so must
// its int32 rows, which it takes only past narrow's bound. rows is
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
		rs, ri, rj, rrows, _ := ExtendBandReference(ref, read, sc, int(init), zd, w)
		for _, int32Rows := range []bool{false, true} {
			ws, wi, wj, wrows := extendRows(&s, int32Rows, ref, read, sc, int(init), zd, w)
			if ws != rs || wi != ri || wj != rj || wrows != rrows {
				t.Fatalf("kernel (int32 rows %v)=(%d,%d,%d,%d) reference=(%d,%d,%d,%d) sc=%+v init=%d zdrop=%d w=%d ref=%q read=%q",
					int32Rows, ws, wi, wj, wrows, rs, ri, rj, rrows, sc, init, zd, w, ref, read)
			}
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

// FuzzExtendRowVector is the differential fuzz target for the int32
// vector row: on windows of 0-80 columns, extendRow with rowAVX2 (and
// its scalar tail of 1-7 columns) must leave the same H and E rows and
// return the same row maximum as the scalar loop alone. Each
// column's previous-row H and E, and the boundary hDiag and hLeft, are
// either live scores or dead values up to 127 below the dead value,
// where the kernel's decays run closest to its floor; GapOpen and
// GapExtend are drawn non-negative, the vector row's domain. The int16
// row runs only inside a fused pass, which FuzzExtendPassFused covers.
func FuzzExtendRowVector(f *testing.F) {
	f.Add(uint8(17), uint8(6), uint8(1), int16(20), int16(-3), false, false, []byte{1, 2, 3, 200, 7, 9, 4, 130, 66})
	f.Add(uint8(8), uint8(0), uint8(0), int16(0), int16(0), true, true, []byte{255, 255, 255})
	f.Add(uint8(80), uint8(11), uint8(4), int16(90), int16(90), false, true, []byte{40, 10, 1, 41, 11, 2, 200, 201, 3})
	f.Add(uint8(31), uint8(5), uint8(2), int16(7), int16(60), true, false, []byte{180, 3, 250, 20, 140, 9, 1})
	f.Fuzz(func(t *testing.T, width, gapO, gapE uint8, hDiag, hLeft int16, deadDiag, deadLeft bool, cells []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 row kernel on this host")
		}
		n := int(width) % 81
		ge := gapE % 5
		goe := gapO%12 + ge
		checkRowVector[int32](t, n, goe, ge, hDiag, hLeft, deadDiag, deadLeft, cells)
	})
}

// checkRowVector is one FuzzExtendRowVector case in rows of width L.
func checkRowVector[L lane](t *testing.T, n int, goe, ge uint8, hDiag, hLeft int16, deadDiag, deadLeft bool, cells []byte) {
	t.Helper()
	dead := deadOf[L]()
	// val maps a byte to a live score in -32..95 or, with its top bit
	// set, a dead value up to 127 below the dead value.
	val := func(b byte) L {
		if b&0x80 != 0 {
			return dead - L(b&0x7f)
		}
		return L(b) - 32
	}
	boundary := func(x int16, isDead bool) L {
		if isDead {
			return dead - L(uint16(x)%128)
		}
		return L(x)
	}
	h, e, sub := make([]L, n), make([]L, n), make([]L, n)
	for k := 0; k < n; k++ {
		var b [3]byte
		for i := range b {
			if len(cells) > 0 {
				b[i] = cells[(3*k+i)%len(cells)] + byte(k)
			}
		}
		h[k], e[k], sub[k] = val(b[0]), val(b[1]), L(int8(b[2])%16)
	}
	hv, ev := append([]L(nil), h...), append([]L(nil), e...)
	hD, hL := boundary(hDiag, deadDiag), boundary(hLeft, deadLeft)
	vb := extendRow(hv, ev, sub, hD, hL, L(goe), L(ge), true)
	sb := extendRow(h, e, sub, hD, hL, L(goe), L(ge), false)
	if vb != sb {
		t.Fatalf("%T n=%d goe=%d ge=%d hDiag=%d hLeft=%d: vector row maximum %d, scalar %d",
			dead, n, goe, ge, hD, hL, vb, sb)
	}
	for k := range h {
		if hv[k] != h[k] || ev[k] != e[k] {
			t.Fatalf("%T n=%d goe=%d ge=%d: column %d vector (H, E) = (%d,%d), scalar (%d,%d)",
				dead, n, goe, ge, k, hv[k], ev[k], h[k], e[k])
		}
	}
}

// FuzzExtendPassFused is the differential fuzz target for the fused
// int16 pass: on 2-bit pairs of up to 300 bases, passAVX2w16 (through
// extendPass with a pass16) must return the same (best, bi, bj, rows,
// maxOff) as extendPass's own row loop over the same int16 rows and as
// one ExtendReference pass at w, and leave byte-identical H and E rows
// to the row loop's. Both passes start from the same dirty rows, left
// by an earlier extension of the pair swapped. band selects w from
// {-1, 0..8, 300}: unbanded, bands that bind, and one at least as wide
// as the pair; zdrop runs negative (no z-drop, no shrink) to positive;
// scoring keeps both gap penalties non-negative, the fused pass's
// domain, and draws that narrow rejects are skipped. The seeds cover
// every row-end remainder, rows narrower than one vector, and shrinks
// that drop more than sixteen columns at either end at once.
func FuzzExtendPassFused(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGGACGT"), uint8(1), uint8(4), uint8(6), uint8(1), int16(19), int16(50), uint8(0))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("CCCCCCCCCCCCCCCCCCCCCCCC"), uint8(2), uint8(3), uint8(0), uint8(2), int16(40), int16(0), uint8(3))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACA"), []byte("GATTACAGATTTTTTTTTTTTACA"), uint8(5), uint8(0), uint8(7), uint8(3), int16(0), int16(-1), uint8(9))
	f.Add([]byte("ACGTTTTTTTTACGTACGTACGTTTGACCA"), []byte("ACGTACGTACGTACGTACGGTACCAGGA"), uint8(1), uint8(4), uint8(6), uint8(1), int16(-300), int16(30), uint8(4))
	// Flanks long enough for whole sixteen-column vectors, odd eighths
	// and shrinking windows: 5% substitutions and 2% indels at 101 and
	// 250 bases.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{101, 250} {
		ref := randomSeq(rng, n+8)
		read := mutatedCopy(rng, ref[:n], n*5/100, n*2/100)
		f.Add(ref, read, uint8(1), uint8(4), uint8(6), uint8(1), int16(20), int16(100), uint8(10))
		f.Add(ref, read, uint8(1), uint8(4), uint8(6), uint8(1), int16(20), int16(5), uint8(7))
	}
	// Reads of 1-31 bases, unbanded and without z-drop, so every row's
	// window is the whole read: rows narrower than sixteen columns, and
	// one whole vector followed by each remainder 0-15.
	for n := 1; n < 32; n++ {
		ref := randomSeq(rng, n+8)
		f.Add(ref, mutatedCopy(rng, ref[:n], n/8, 0), uint8(1), uint8(4), uint8(6), uint8(1), int16(20), int16(-1), uint8(0))
	}
	// Unrelated pairs whose shrink drops more than sixteen columns of a
	// row at once: at the left end (twice), then at the right (twice).
	for _, c := range []struct {
		seed                   int64
		m, n                   int
		match, mis, gapO, gapE uint8
		init, zdrop            int16
		band                   uint8
	}{
		{21, 39, 80, 141, 42, 50, 85, 135, 8, 10},
		{273, 92, 113, 95, 239, 83, 50, 38, 26, 10},
		{396, 44, 103, 186, 253, 94, 76, 116, 30, 0},
		{1755, 47, 114, 134, 24, 208, 78, 30, 13, 0},
	} {
		r := rand.New(rand.NewSource(c.seed))
		ref := randomSeq(r, c.m)
		f.Add(ref, randomSeq(r, c.n), c.match, c.mis, c.gapO, c.gapE, c.init, c.zdrop, c.band)
	}
	f.Fuzz(func(t *testing.T, ref, read []byte, match, mis, gapO, gapE uint8, init, zdrop int16, band uint8) {
		if !useAVX2 {
			t.Skip("no AVX2 fused pass on this host")
		}
		if len(ref) == 0 || len(read) == 0 || len(ref) > 300 || len(read) > 300 {
			return
		}
		ref, read = fold2Bit(ref), fold2Bit(read)
		sc := Scoring{
			Match:     1 + int(match)%8,
			Mismatch:  int(mis) % 10,
			GapOpen:   int(gapO) % 12,
			GapExtend: int(gapE) % 5,
		}
		zd := int(zdrop) % 200
		w := int(band)%11 - 1
		if w == 9 {
			w = 300
		}
		m, n := len(ref), len(read)
		if !narrow(m, n, sc, int(init), zd) || !narrow(n, m, sc, int(init), zd) {
			return
		}
		var s Scratch
		ExtendWithScratch(&s, read, ref, sc, int(init), zd, w) // leaves dirty rows; sets s's tables for sc
		fit(&s.rowH16, &s.rowE16, &s.prof16, n)
		h, e, prof := s.rowH16, s.rowE16, s.prof16
		if !buildProfile(prof, ref, read, &s.sub) {
			t.Fatal("2-bit pair has no profile")
		}
		hRef, eRef := append([]int16(nil), h...), append([]int16(nil), e...)
		fb, fi, fj, frows, foff := extendPass(h, e, prof, ref, read, sc, true, &s.pass, int(init), zd, w)
		rb, ri, rj, rrows, roff := extendPass(hRef, eRef, prof, ref, read, sc, true, nil, int(init), zd, w)
		if fb != rb || fi != ri || fj != rj || frows != rrows || foff != roff {
			t.Fatalf("fused (best, bi, bj, rows, maxOff) = (%d,%d,%d,%d,%d), row loop (%d,%d,%d,%d,%d); sc=%+v init=%d zdrop=%d w=%d ref=%v read=%v",
				fb, fi, fj, frows, foff, rb, ri, rj, rrows, roff, sc, init, zd, w, ref, read)
		}
		if os, oi, oj, orows, ooff := ExtendReference(ref, read, sc, int(init), zd, w); fb != os || fi != oi || fj != oj || frows != orows || foff != ooff {
			t.Fatalf("fused (best, bi, bj, rows, maxOff) = (%d,%d,%d,%d,%d), ExtendReference (%d,%d,%d,%d,%d); sc=%+v init=%d zdrop=%d w=%d ref=%v read=%v",
				fb, fi, fj, frows, foff, os, oi, oj, orows, ooff, sc, init, zd, w, ref, read)
		}
		for j := range h {
			if h[j] != hRef[j] || e[j] != eRef[j] {
				t.Fatalf("column %d: fused (H, E) = (%d,%d), row loop (%d,%d); sc=%+v init=%d zdrop=%d w=%d ref=%v read=%v",
					j, h[j], e[j], hRef[j], eRef[j], sc, init, zd, w, ref, read)
			}
		}
	})
}
