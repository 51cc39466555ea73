package systolic

import (
	"math/rand"
	"testing"

	"nvwa/internal/align"
)

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

func TestLatencyFormula(t *testing.T) {
	cases := []struct {
		r, q, p, want int
	}{
		{9, 9, 3, 33},    // the paper's Fig. 7 example: 11 cycles/block x 3 blocks
		{9, 9, 9, 17},    // single block
		{10, 10, 64, 73}, // Fig. 9(d): hit 10 on a 64-PE unit
		{20, 20, 64, 83},
		{40, 40, 64, 103},
		{65, 65, 64, 256},   // Fig. 9(d): hit 65 needs 2 passes on 64 PEs
		{127, 127, 64, 380}, // Fig. 9(d): hit 127 on 64 PEs
		{10, 10, 16, 25},    // hybrid: hit 10 on its optimal 16-PE unit
		{20, 20, 16, 70},
		{40, 40, 32, 142},
		{65, 65, 64, 256},
		{127, 127, 128, 254},
		{0, 5, 4, 0},
		{5, 0, 4, 0},
	}
	for _, c := range cases {
		if got := Latency(c.r, c.q, c.p); got != c.want {
			t.Errorf("Latency(%d,%d,%d) = %d, want %d", c.r, c.q, c.p, got, c.want)
		}
	}
}

func TestLatencyObservations(t *testing.T) {
	// Paper Sec. IV-C observations on Fig. 8.
	for _, n := range []int{9, 64} {
		bestP, bestL := 0, 1<<30
		for p := 1; p <= 256; p++ {
			if l := Latency(n, n, p); l < bestL {
				bestL, bestP = l, p
			}
		}
		// (1) Minimum latency is reached when PEs ~= hit length.
		if bestP != n {
			t.Errorf("len %d: best P = %d, want %d", n, bestP, n)
		}
		// (2) Too-large and too-small arrays are both worse.
		if Latency(n, n, 4*n) <= bestL || Latency(n, n, max2(1, n/4)) <= bestL {
			t.Errorf("len %d: latency not minimal at P=%d", n, n)
		}
	}
}

func TestRunCyclesMatchLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := align.BWAMEM()
	for trial := 0; trial < 20; trial++ {
		p := 1 << uint(rng.Intn(6)) // 1..32
		a := &Array{PEs: p, Scoring: sc}
		ref := randomSeq(rng, 1+rng.Intn(60))
		q := randomSeq(rng, 1+rng.Intn(60))
		res := a.Run(ref, q, ModeLocal, 0)
		if want := Latency(len(ref), len(q), p); res.Cycles != want {
			t.Fatalf("cycles = %d, want %d", res.Cycles, want)
		}
	}
}

func TestRunLocalMatchesSoftwareDP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := align.BWAMEM()
	for trial := 0; trial < 60; trial++ {
		p := []int{1, 2, 3, 4, 8, 16, 32}[rng.Intn(7)]
		a := &Array{PEs: p, Scoring: sc}
		var ref, q []byte
		if trial%2 == 0 {
			// Related sequences: mutate a copy.
			ref = randomSeq(rng, 20+rng.Intn(50))
			q = append([]byte(nil), ref...)
			for k := 0; k < 3; k++ {
				q[rng.Intn(len(q))] = byte(rng.Intn(4))
			}
		} else {
			ref = randomSeq(rng, 1+rng.Intn(60))
			q = randomSeq(rng, 1+rng.Intn(60))
		}
		got := a.Run(ref, q, ModeLocal, 0)
		want := align.Local(ref, q, sc)
		if got.Score != want.Score {
			t.Fatalf("trial %d (P=%d): systolic score %d != software %d\nref=%v\nq=%v",
				trial, p, got.Score, want.Score, ref, q)
		}
	}
}

func TestRunExtendMatchesSoftwareDP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := align.BWAMEM()
	for trial := 0; trial < 60; trial++ {
		p := []int{1, 2, 4, 8, 16, 32, 128}[rng.Intn(7)]
		a := &Array{PEs: p, Scoring: sc}
		ref := randomSeq(rng, 1+rng.Intn(50))
		q := append([]byte(nil), ref...)
		if trial%2 == 1 {
			q = randomSeq(rng, 1+rng.Intn(50))
		}
		init := rng.Intn(40)
		got := a.Run(ref, q, ModeExtend, init)
		wantScore, _, _, _ := align.Extend(ref, q, sc, init, -1)
		if got.Score != wantScore {
			t.Fatalf("trial %d (P=%d, init=%d): systolic extend %d != software %d\nref=%v\nq=%v",
				trial, p, init, got.Score, wantScore, ref, q)
		}
	}
}

func TestRunExtendPerfect(t *testing.T) {
	sc := align.BWAMEM()
	a := &Array{PEs: 16, Scoring: sc}
	rng := rand.New(rand.NewSource(4))
	s := randomSeq(rng, 40)
	res := a.Run(s, s, ModeExtend, 5)
	if res.Score != 45 {
		t.Errorf("score = %d, want 45", res.Score)
	}
	if res.RefEnd != 40 || res.ReadEnd != 40 {
		t.Errorf("ends = (%d,%d), want (40,40)", res.RefEnd, res.ReadEnd)
	}
}

func TestRunEmptyInputs(t *testing.T) {
	a := &Array{PEs: 8, Scoring: align.BWAMEM()}
	if res := a.Run(nil, []byte{1}, ModeLocal, 0); res.Score != 0 || res.Cycles != 0 {
		t.Error("empty ref must be a no-op")
	}
	if res := a.Run([]byte{1}, nil, ModeExtend, 9); res.Score != 9 {
		t.Error("empty query extend must return initScore")
	}
}

func TestUtilization(t *testing.T) {
	sc := align.BWAMEM()
	rng := rand.New(rand.NewSource(5))
	// A query exactly filling the array and a long reference: high
	// utilization. A 1-base query on a wide array: low.
	a := &Array{PEs: 16, Scoring: sc}
	util := func(r Result) float64 { return float64(r.BusyPECycles) / float64(a.PEs*r.Cycles) }
	full := a.Run(randomSeq(rng, 200), randomSeq(rng, 16), ModeLocal, 0)
	if u := util(full); u < 0.85 || u > 1 {
		t.Errorf("full-array utilization = %.3f, want high", u)
	}
	tiny := a.Run(randomSeq(rng, 200), randomSeq(rng, 1), ModeLocal, 0)
	if u := util(tiny); u > 0.10 {
		t.Errorf("1-base query utilization = %.3f, want low", u)
	}
	// BusyPECycles must equal exactly R cycles per query base.
	if full.BusyPECycles != 200*16 {
		t.Errorf("busy cycles = %d, want %d", full.BusyPECycles, 200*16)
	}
}

// TestRunFastAdversarial pins the wavefront on tie-heavy and degenerate
// inputs: mono-base repeats (maximal score ties), all-mismatch
// extension, single-base sequences, PE counts larger and smaller than
// the query, a tandem repeat and empty inputs. Each case must score
// like the software DP, take Formula 3's cycles and keep a PE busy for
// exactly one cycle per matrix cell. FuzzSystolicVsSoftwareDP seeds its
// corpus with the non-empty cases.
func TestRunFastAdversarial(t *testing.T) {
	t.Parallel()
	rep := func(b byte, n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = b
		}
		return s
	}
	sc := align.BWAMEM()
	cases := []struct {
		name       string
		ref, query []byte
		p, init    int
		mode       Mode
	}{
		{"mono-repeat-local", rep(0, 60), rep(0, 50), 8, 0, ModeLocal},
		{"mono-repeat-extend", rep(0, 60), rep(0, 50), 8, 10, ModeExtend},
		{"all-mismatch-extend", rep(0, 40), rep(1, 40), 16, 25, ModeExtend},
		{"single-pe", rep(2, 30), rep(2, 30), 1, 0, ModeExtend},
		{"pe-exceeds-query", rep(3, 20), rep(3, 5), 64, 0, ModeExtend},
		{"single-base", []byte{0}, []byte{0}, 4, 0, ModeLocal},
		{"empty-ref", nil, []byte{0, 1, 2, 3}, 4, 7, ModeExtend},
		{"empty-query", []byte{0, 1, 2, 3}, nil, 4, 7, ModeExtend},
		{"tandem-repeat", []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
			[]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 3, 0, ModeLocal},
	}
	for _, tc := range cases {
		arr := &Array{PEs: tc.p, Scoring: sc}
		got := arr.Run(tc.ref, tc.query, tc.mode, tc.init)
		var want int
		if tc.mode == ModeLocal {
			want = align.Local(tc.ref, tc.query, sc).Score
		} else {
			want, _, _, _, _ = align.ExtendReference(tc.ref, tc.query, sc, tc.init, -1, -1)
		}
		r, q := len(tc.ref), len(tc.query)
		if got.Score != want {
			t.Errorf("%s: array score %d, software DP %d", tc.name, got.Score, want)
		}
		if lat := Latency(r, q, tc.p); got.Cycles != lat {
			t.Errorf("%s: %d cycles, Formula 3 gives %d", tc.name, got.Cycles, lat)
		}
		if got.BusyPECycles != r*q {
			t.Errorf("%s: %d busy PE-cycles, want r*q = %d", tc.name, got.BusyPECycles, r*q)
		}
	}
}
