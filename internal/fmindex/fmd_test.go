package fmindex

import (
	"math/rand"
	"testing"

	"nvwa/internal/genome"
)

// twoIndex is the bidirectional index the FMD-index replaced, kept as
// its oracle: one FM-index over U and a second over reverse(U), where
// Rev is the SA interval of reverse(P) in the second index.
type twoIndex struct {
	fwd, rev *Index
}

func newTwoIndex(t []byte) *twoIndex {
	u := withRC(t)
	r := make([]byte, len(u))
	for i, b := range u {
		r[len(u)-1-i] = b
	}
	return &twoIndex{fwd: New(u), rev: New(r)}
}

func (b *twoIndex) single(a byte) BiInterval {
	return BiInterval{
		Fwd: Interval{b.fwd.c[a], b.fwd.c[a+1]},
		Rev: Interval{b.rev.c[a], b.rev.c[a+1]},
	}
}

// twoExtend LF-maps main in x with base a and places the partner
// interval in the other index in base order: occurrences preceded by
// the start of text first, then every b < a.
func twoExtend(x *Index, main, other Interval, a byte) (Interval, Interval) {
	var l, h [4]int
	l[0], l[1], l[2], l[3] = x.occ4Fast(main.Lo)
	h[0], h[1], h[2], h[3] = x.occ4Fast(main.Hi)
	lo := other.Lo + main.Size()
	for b := 0; b < 4; b++ {
		lo -= h[b] - l[b]
	}
	for b := byte(0); b < a; b++ {
		lo += h[b] - l[b]
	}
	return Interval{x.c[a] + l[a], x.c[a] + h[a]}, Interval{lo, lo + h[a] - l[a]}
}

func (b *twoIndex) extendLeft(iv BiInterval, a byte, st *Stats) BiInterval {
	if st != nil {
		st.OccAccesses += 2
	}
	var out BiInterval
	out.Fwd, out.Rev = twoExtend(b.fwd, iv.Fwd, iv.Rev, a)
	return out
}

func (b *twoIndex) extendRight(iv BiInterval, a byte, st *Stats) BiInterval {
	if st != nil {
		st.OccAccesses += 2
	}
	var out BiInterval
	out.Rev, out.Fwd = twoExtend(b.rev, iv.Rev, iv.Fwd, a)
	return out
}

// smem1 is bwt_smem1 over the two-index oracle.
func (b *twoIndex) smem1(r []byte, x, minIntv int, out *[]SMEM, st *Stats) int {
	ik := b.single(r[x])
	if ik.Empty() {
		return x + 1
	}
	farEnd := x + 1
	var curr, prev []smemEntry
	for i := x + 1; i < len(r); i++ {
		ok := b.extendRight(ik, r[i], st)
		if ok.Size() != ik.Size() {
			curr = append(curr, smemEntry{ik, i})
			if ok.Size() < minIntv {
				break
			}
		}
		ik = ok
		farEnd = i + 1
	}
	if len(curr) == 0 || curr[len(curr)-1].end != farEnd {
		curr = append(curr, smemEntry{ik, farEnd})
	}
	for i := len(curr) - 1; i >= 0; i-- {
		prev = append(prev, curr[i])
	}
	lastBeg := len(r) + 1
	for i := x - 1; i >= -1; i-- {
		curr = nil
		for _, p := range prev {
			var ok BiInterval
			if i >= 0 {
				ok = b.extendLeft(p.iv, r[i], st)
			}
			if i < 0 || ok.Size() < minIntv {
				if len(curr) == 0 && i+1 < lastBeg {
					*out = append(*out, SMEM{ReadBeg: i + 1, ReadEnd: p.end, Iv: p.iv})
					lastBeg = i + 1
				}
			} else if len(curr) == 0 || ok.Size() != curr[len(curr)-1].iv.Size() {
				curr = append(curr, smemEntry{ok, p.end})
			}
		}
		if len(curr) == 0 {
			break
		}
		prev = curr
	}
	return farEnd
}

func (b *twoIndex) findSMEMs(r []byte, minLen int, st *Stats) []SMEM {
	var out []SMEM
	for x := 0; x < len(r); {
		x = b.smem1(r, x, 1, &out, st)
	}
	var keep []SMEM
	for _, s := range out {
		if s.Len() >= minLen {
			keep = append(keep, s)
		}
	}
	return keep
}

func (b *twoIndex) findSMEMsReseed(r []byte, minLen, splitLen, splitWidth int, st *Stats) []SMEM {
	out := b.findSMEMs(r, minLen, st)
	seen := map[[2]int]bool{}
	for _, s := range out {
		seen[[2]int{s.ReadBeg, s.ReadEnd}] = true
	}
	for _, s := range out[:len(out):len(out)] {
		if s.Len() < splitLen || s.Iv.Size() > splitWidth {
			continue
		}
		var extra []SMEM
		b.smem1(r, (s.ReadBeg+s.ReadEnd)/2, s.Iv.Size()+1, &extra, st)
		for _, e := range extra {
			key := [2]int{e.ReadBeg, e.ReadEnd}
			if e.Len() >= minLen && !seen[key] {
				seen[key] = true
				out = append(out, e)
			}
		}
	}
	return out
}

func (b *twoIndex) repeatSeeds(r []byte, minLen, maxIntv int, st *Stats) []SMEM {
	var out []SMEM
	for x := 0; x+minLen <= len(r); {
		ik := b.single(r[x])
		if ik.Empty() {
			x++
			continue
		}
		next := len(r)
		for i := x + 1; i < len(r); i++ {
			ok := b.extendRight(ik, r[i], st)
			if ok.Size() < maxIntv && i-x >= minLen {
				if ik.Size() > 0 {
					out = append(out, SMEM{ReadBeg: x, ReadEnd: i, Iv: ik})
				}
				next = i + 1
				break
			}
			ik = ok
		}
		x = next
	}
	return out
}

// seeds is the three-pass Seeds over the oracle, locating in its
// forward index; n is the reference length (T only).
func (b *twoIndex) seeds(n int, r []byte, minLen, maxOcc, maxMemIntv int, st *Stats) []Seed {
	smems := b.findSMEMsReseed(r, minLen, minLen*3/2, 10, st)
	if maxMemIntv > 0 {
		seen := map[[2]int]bool{}
		for _, m := range smems {
			seen[[2]int{m.ReadBeg, m.ReadEnd}] = true
		}
		for _, m := range b.repeatSeeds(r, minLen, maxMemIntv, st) {
			if !seen[[2]int{m.ReadBeg, m.ReadEnd}] {
				smems = append(smems, m)
			}
		}
	}
	var out []Seed
	for _, m := range smems {
		l := m.Len()
		for _, p := range b.fwd.LocateAll(m.Iv.Fwd, maxOcc, st) {
			switch {
			case p+l <= n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: p, Count: m.Iv.Size()})
			case p >= n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: 2*n - p - l, Rev: true, Count: m.Iv.Size()})
			}
		}
	}
	return out
}

// sameSMEMs compares FMD output with the oracle's on everything a
// caller reads: the read span, the forward SA interval and the size.
// Iv.Rev means revcomp(P) in the FMD-index and reverse(P) in the
// oracle, and only fmindex reads it.
func sameSMEMs(t *testing.T, what string, got, want []SMEM) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d SMEMs, oracle %d\n got=%v\nwant=%v", what, len(got), len(want), smemPairs(got), smemPairs(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ReadBeg != w.ReadBeg || g.ReadEnd != w.ReadEnd || g.Iv.Fwd != w.Iv.Fwd || g.Iv.Size() != w.Iv.Size() {
			t.Fatalf("%s: SMEM %d = %+v, oracle %+v", what, i, g, w)
		}
	}
}

// FuzzFMDVsTwoIndex checks the one-BWT FMD-index against the
// two-index oracle on fuzzer-chosen references (indexed with their
// reverse complement) and reads: the SMEM pass, the re-seeding pass
// and the repeat pass must agree on every output a caller reads and
// charge identical Stats.
func FuzzFMDVsTwoIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 0, 3, 1, 1, 2, 0}, []byte{0, 1, 2, 3, 2, 1}, byte(4), byte(8))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(2), byte(3))
	f.Add([]byte("ACGTGTCAACGTGTCA"), []byte("TGTCAACG"), byte(5), byte(3))
	f.Add([]byte{2, 1, 3, 0, 2, 2, 1, 3, 3, 1, 0, 2, 3, 1}, []byte{3, 3, 1, 0, 2}, byte(1), byte(16))
	f.Fuzz(func(t *testing.T, rawText, rawRead []byte, minLenRaw, maxIntvRaw byte) {
		if len(rawText) == 0 || len(rawRead) == 0 {
			return
		}
		text := codes(rawText, 512)
		r := codes(rawRead, 96)
		minLen := 1 + int(minLenRaw)%16
		maxIntv := 1 + int(maxIntvRaw)%20

		fmd, two := NewBi(text), newTwoIndex(text)
		var ws Workspace
		var stGot, stWant Stats
		sameSMEMs(t, "FindSMEMsWS", fmd.FindSMEMsWS(&ws, r, minLen, &stGot), two.findSMEMs(r, minLen, &stWant))
		splitWidth := 1 + int(maxIntvRaw)%12
		sameSMEMs(t, "FindSMEMsReseedWS",
			fmd.FindSMEMsReseedWS(&ws, r, minLen, minLen*3/2, splitWidth, &stGot),
			two.findSMEMsReseed(r, minLen, minLen*3/2, splitWidth, &stWant))
		sameSMEMs(t, "RepeatSeedsWS", fmd.RepeatSeedsWS(&ws, r, minLen, maxIntv, &stGot), two.repeatSeeds(r, minLen, maxIntv, &stWant))
		if stGot != stWant {
			t.Fatalf("stats %+v, oracle %+v (text=%v read=%v)", stGot, stWant, text, r)
		}
	})
}

// codes masks raw bytes to 2-bit codes, keeping at most max of them.
func codes(raw []byte, max int) []byte {
	if len(raw) > max {
		raw = raw[:max]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b & 3
	}
	return out
}

// TestSeedsWSMatchesTwoIndex seeds every read of a short-read and a
// 1 kbp read set on a 200 kbp reference with the production Seeder
// and with the two-index oracle: seeds (values and order) and Stats
// must be equal read by read.
func TestSeedsWSMatchesTwoIndex(t *testing.T) {
	t.Parallel()
	ref := genome.Generate(genome.HumanLike(), 200_000, 7)
	sd, two := NewSeeder(ref.Seq), newTwoIndex(ref.Seq)
	nShort, nLong := 2000, 48
	if testing.Short() {
		nShort, nLong = 300, 8
	}
	sets := [][]genome.Read{
		genome.Simulate(ref, nShort, genome.ShortReadConfig(8)),
		genome.Simulate(ref, nLong, genome.LongReadConfig(9)),
	}
	var ws Workspace
	for _, reads := range sets {
		for _, rd := range reads {
			var stGot, stWant Stats
			got := sd.SeedsWS(&ws, rd.Seq, 15, 16, 8, &stGot)
			want := two.seeds(len(ref.Seq), rd.Seq, 15, 16, 8, &stWant)
			if len(got) != len(want) {
				t.Fatalf("read %s: %d seeds, oracle %d", rd.Name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("read %s seed %d: %+v, oracle %+v", rd.Name, i, got[i], want[i])
				}
			}
			if stGot != stWant {
				t.Fatalf("read %s: stats %+v, oracle %+v", rd.Name, stGot, stWant)
			}
		}
	}
}

// locate32 is the modeled Locate: an LF walk to the nearest SA value
// divisible by saSampleRate, read off the full suffix array, charging
// one LFStep and one OccAccess per step and one SALookup.
func locate32(x *Index, sa []int32, i int, st *Stats) int {
	steps := 0
	for sa[i]%saSampleRate != 0 {
		a := byte(x.blocks[i/basesPerWord].word>>uint(2*(i%basesPerWord))) & 3
		i = x.c[a] + x.occRaw(a, i)
		st.LFSteps++
		st.OccAccesses++
		steps++
	}
	st.SALookups++
	return int(sa[i]) + steps
}

// checkLocate checks Locate at row i of x against the suffix array and
// the modeled rate-32 walk's charges.
func checkLocate(t *testing.T, x *Index, sa []int32, i int) {
	t.Helper()
	var got, want Stats
	if p, q := x.Locate(i, &got), locate32(x, sa, i, &want); p != int(sa[i]) || q != int(sa[i]) {
		t.Fatalf("len %d row %d: Locate=%d rate-32 walk=%d SA=%d", x.textLen, i, p, q, sa[i])
	}
	if got != want {
		t.Fatalf("len %d row %d: stats %+v, rate-32 walk %+v", x.textLen, i, got, want)
	}
}

// TestLocateMatchesSuffixArray checks Locate at every row of small
// texts, across the sample-rate boundaries, and at sampled rows of a
// 200 kbp seeder's index: it must return SA[i] and charge what the
// modeled rate-32 walk charges.
func TestLocateMatchesSuffixArray(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 300, 1000} {
		for _, text := range [][]byte{randomText(rng, n), make([]byte, n)} {
			x := New(text)
			sa := BuildSuffixArray(text)
			for i := range sa {
				checkLocate(t, x, sa, i)
			}
		}
	}
	ref := genome.Generate(genome.HumanLike(), 200_000, 7)
	x := NewSeeder(ref.Seq).bi.Fwd()
	sa := BuildSuffixArray(withRC(ref.Seq))
	for k := 0; k < 5000; k++ {
		checkLocate(t, x, sa, rng.Intn(len(sa)))
	}
}

// TestBiIntervalRevIsRevcompInterval pins the FMD invariant directly:
// after any sequence of extensions, Rev is the SA interval of
// revcomp(P) in the same index, the interval backward search finds.
func TestBiIntervalRevIsRevcompInterval(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	text := repeatText(rng, 700)
	bi := NewBi(text)
	x := bi.Fwd()
	search := func(p []byte) Interval {
		iv := x.Full()
		for i := len(p) - 1; i >= 0 && !iv.Empty(); i-- {
			iv = x.Extend(iv, p[i], nil)
		}
		return iv
	}
	for trial := 0; trial < 300; trial++ {
		p := drawRead(rng, withRC(text), 1+rng.Intn(20))
		mid := rng.Intn(len(p))
		iv := bi.Single(p[mid])
		lo, hi := mid, mid+1
		for !iv.Empty() && (lo > 0 || hi < len(p)) {
			if lo > 0 && (hi == len(p) || rng.Intn(2) == 0) {
				lo--
				iv = bi.ExtendLeft(iv, p[lo], nil)
			} else {
				iv = bi.ExtendRight(iv, p[hi], nil)
				hi++
			}
		}
		if iv.Empty() {
			continue
		}
		rc := withRC(p)[len(p):]
		if want := search(p); iv.Fwd != want {
			t.Fatalf("pattern %v: Fwd %+v, backward search %+v", p, iv.Fwd, want)
		}
		if want := search(rc); iv.Rev != want {
			t.Fatalf("pattern %v: Rev %+v, interval of revcomp %+v", p, iv.Rev, want)
		}
	}
}
