package fmindex

import "testing"

// FuzzSeedsLUTVsReference drives the production seeding path —
// Workspace passes plus the k-mer LUT jump-start — against the
// SeedsReference oracle (map-based dedup, allocating passes, no LUT)
// on fuzzer-chosen reference/read pairs. Seeds (values and order) and
// charged Stats must both agree exactly: the Stats contract is what
// keeps simulated Reports equal to the reference seeding's cost
// profile, so a divergence here is a simulator-fidelity bug, not just
// a software one.
func FuzzSeedsLUTVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 0, 3, 1, 1, 2, 0}, []byte{0, 1, 2, 3, 2, 1}, byte(4), byte(8))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(2), byte(0))
	f.Add([]byte("ACGTGTCAACGTGTCA"), []byte("TGTCAACG"), byte(5), byte(3))
	f.Add([]byte{2, 1, 3, 0, 2, 2, 1, 3, 3, 1, 0, 2, 3, 1}, []byte{3, 3}, byte(1), byte(16))
	f.Fuzz(func(t *testing.T, rawText, rawRead []byte, minLenRaw, maxIntvRaw byte) {
		if len(rawText) < 2 || len(rawRead) == 0 {
			return
		}
		if len(rawText) > 512 {
			rawText = rawText[:512]
		}
		if len(rawRead) > 96 {
			rawRead = rawRead[:96]
		}
		text := make([]byte, len(rawText))
		for i, b := range rawText {
			text[i] = b & 3
		}
		r := make([]byte, len(rawRead))
		for i, b := range rawRead {
			r[i] = b & 3
		}
		minLen := 1 + int(minLenRaw)%16
		maxMemIntv := int(maxIntvRaw) % 20 // 0 disables the repeat pass

		sd := NewSeeder(text)
		// Force a table even on texts below the adaptive threshold, as
		// long as the bounds allow one, so the jump path is exercised:
		// the jump itself still only engages when k <= minLen.
		if sd.Bi().LUT() == nil {
			for k := 3; k >= 1; k-- {
				if err := sd.Bi().BuildLUT(k); err == nil {
					break
				}
			}
		}
		var ws Workspace
		var stFast, stRef Stats
		fast := sd.SeedsWS(&ws, r, minLen, 16, maxMemIntv, &stFast)
		ref := sd.SeedsReference(r, minLen, 16, maxMemIntv, &stRef)

		if len(fast) != len(ref) {
			t.Fatalf("minLen %d maxMemIntv %d: %d seeds, want %d\nfast=%v\nref=%v\ntext=%v\nread=%v",
				minLen, maxMemIntv, len(fast), len(ref), fast, ref, text, r)
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: %+v, want %+v (text=%v read=%v)", i, fast[i], ref[i], text, r)
			}
		}
		if stFast != stRef {
			t.Fatalf("stats diverge: fast=%+v ref=%+v (text=%v read=%v minLen=%d maxMemIntv=%d)",
				stFast, stRef, text, r, minLen, maxMemIntv)
		}
	})
}

// FuzzSMEMvsNaive cross-checks the two-phase FM-index SMEM traversal
// (bwt_smem1) against the brute-force oracle on fuzzer-chosen
// text/read pairs: the set of supermaximal exact matches and their
// occurrence counts must agree exactly. The corpus seeds cover exact
// substrings, repeats, and unrelated reads.
func FuzzSMEMvsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 0, 3}, []byte{0, 1, 2, 3}, byte(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0}, byte(1))
	f.Add([]byte{2, 1, 3, 0, 2, 2, 1, 3, 3, 1, 0, 2, 3, 1}, []byte{3, 3, 1, 0}, byte(3))
	f.Add([]byte("ACGTGTCA"), []byte("TGTC"), byte(2))
	f.Fuzz(func(t *testing.T, rawText, rawRead []byte, minLenRaw byte) {
		if len(rawText) == 0 || len(rawRead) == 0 {
			return
		}
		if len(rawText) > 512 {
			rawText = rawText[:512]
		}
		if len(rawRead) > 96 {
			rawRead = rawRead[:96]
		}
		text := make([]byte, len(rawText))
		for i, b := range rawText {
			text[i] = b & 3
		}
		r := make([]byte, len(rawRead))
		for i, b := range rawRead {
			r[i] = b & 3
		}
		minLen := 1 + int(minLenRaw)%8

		bi := NewBi(text)
		var st Stats
		got := bi.FindSMEMs(r, minLen, &st)
		want := bruteSMEMs(text, r, minLen)

		if len(got) != len(want) {
			t.Fatalf("minLen %d: %d SMEMs, want %d\n got=%v\nwant=%v\ntext=%v\nread=%v",
				minLen, len(got), len(want), smemPairs(got), want, text, r)
		}
		wantSet := map[[2]int]bool{}
		for _, w := range want {
			wantSet[w] = true
		}
		for _, s := range got {
			if !wantSet[[2]int{s.ReadBeg, s.ReadEnd}] {
				t.Fatalf("spurious SMEM [%d,%d) (want %v)", s.ReadBeg, s.ReadEnd, want)
			}
			if s.Len() < minLen {
				t.Fatalf("SMEM [%d,%d) shorter than minLen %d", s.ReadBeg, s.ReadEnd, minLen)
			}
			// Interval sizes must equal the true occurrence count.
			if gotN, wantN := s.Iv.Size(), bruteCount(text, r[s.ReadBeg:s.ReadEnd]); gotN != wantN {
				t.Fatalf("SMEM [%d,%d): interval size %d, want %d occurrences",
					s.ReadBeg, s.ReadEnd, gotN, wantN)
			}
		}
	})
}
