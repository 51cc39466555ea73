package fmindex

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzSeedsWSVsReference drives the production seeding path — the
// Workspace passes with sorted-sweep dedup — against the
// SeedsReference oracle (map-based dedup, allocating passes) on
// fuzzer-chosen reference/read pairs. Seeds (values and order) and
// charged Stats must both agree exactly: the Stats contract is what
// keeps simulated Reports equal to the reference seeding's cost
// profile, so a divergence here is a simulator-fidelity bug, not just
// a software one.
func FuzzSeedsWSVsReference(f *testing.F) {
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
		got := bi.FindSMEMsWS(new(Workspace), r, minLen, &st)
		want := bruteSMEMs(withRC(text), r, minLen)

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
			if gotN, wantN := s.Iv.Size(), bruteCount(withRC(text), r[s.ReadBeg:s.ReadEnd]); gotN != wantN {
				t.Fatalf("SMEM [%d,%d): interval size %d, want %d occurrences",
					s.ReadBeg, s.ReadEnd, gotN, wantN)
			}
		}
	})
}

// FuzzSuffixArrayVsDoubling checks SA-IS against the prefix-doubling
// oracle on 2-bit texts of up to 4,000 bases in four shapes: random
// text, single-base runs, periodic text (period 1–8, which keeps LMS
// names repeating through the recursion) and T·revcomp(T) of a random
// T, the shape NewBi indexes. raw supplies the bases; a PRNG seeded
// from seed extends it to the drawn length.
func FuzzSuffixArrayVsDoubling(f *testing.F) {
	f.Add(byte(0), uint16(100), int64(1), []byte{0x1b, 0xe4})
	f.Add(byte(1), uint16(300), int64(2), []byte{7, 1, 40, 2})
	f.Add(byte(2), uint16(4000), int64(3), []byte{5, 0x9c})
	f.Add(byte(2), uint16(999), int64(4), []byte{0})
	f.Add(byte(3), uint16(2000), int64(5), []byte{})
	f.Fuzz(func(t *testing.T, shape byte, length uint16, seed int64, raw []byte) {
		n := int(length) % 4001
		rng := rand.New(rand.NewSource(seed))
		next := func() byte { // raw's bytes first, then the PRNG
			if len(raw) > 0 {
				b := raw[0]
				raw = raw[1:]
				return b
			}
			return byte(rng.Intn(256))
		}
		text := make([]byte, 0, n)
		switch shape % 4 {
		case 0: // random text, four bases per byte
			for len(text) < n {
				b := next()
				for k := 0; k < 4 && len(text) < n; k++ {
					text = append(text, b>>(2*k)&3)
				}
			}
		case 1: // runs of one base, 1 to 64 long
			for len(text) < n {
				b := next()
				for k := 0; k <= int(b>>2) && len(text) < n; k++ {
					text = append(text, b&3)
				}
			}
		case 2: // a unit of 1 to 8 bases, repeated
			unit := make([]byte, 1+next()%8)
			for i := range unit {
				unit[i] = next() & 3
			}
			for len(text) < n {
				text = append(text, unit[len(text)%len(unit)])
			}
		default: // T·revcomp(T)
			for len(text) < n/2 {
				text = append(text, next()&3)
			}
			text = withRC(text)
		}
		got, want := BuildSuffixArray(text), buildSuffixArrayDoubling(text)
		if !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shape %d len %d: sa[%d] = %d, want %d (text %v)", shape%4, len(text), i, got[i], want[i], text)
				}
			}
		}
	})
}
