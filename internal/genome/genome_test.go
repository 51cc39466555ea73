package genome

import (
	"math"
	"testing"

	"nvwa/internal/seq"
)

func TestGenerateLengthAndDeterminism(t *testing.T) {
	t.Parallel()
	p := HumanLike()
	a := Generate(p, 10000, 42)
	b := Generate(p, 10000, 42)
	if len(a.Seq) != 10000 {
		t.Fatalf("length = %d, want 10000", len(a.Seq))
	}
	if !a.Seq.Equal(b.Seq) {
		t.Fatal("same seed must produce identical references")
	}
	c := Generate(p, 10000, 43)
	if a.Seq.Equal(c.Seq) {
		t.Fatal("different seeds should produce different references")
	}
}

func TestGenerateGCApproximatesProfile(t *testing.T) {
	t.Parallel()
	p := HumanLike()
	ref := Generate(p, 200000, 1)
	gc := gcFraction(ref.Seq)
	if math.Abs(gc-p.GC) > 0.06 {
		t.Errorf("GC = %.3f, want within 0.06 of %.3f", gc, p.GC)
	}
}

func TestGenerateHasRepeats(t *testing.T) {
	t.Parallel()
	// A genome with interspersed repeats must contain some k-mer many
	// times; a uniform random genome of this size essentially never
	// repeats a 16-mer 10 times.
	ref := Generate(HumanLike(), 100000, 7)
	counts := map[string]int{}
	k := 16
	for i := 0; i+k <= len(ref.Seq); i++ {
		counts[ref.Seq[i:i+k].String()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10 {
		t.Errorf("max 16-mer multiplicity = %d, want >= 10 (repeat structure missing)", max)
	}
}

func TestSimulateBasicProperties(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 50000, 3)
	cfg := ShortReadConfig(9)
	reads := Simulate(ref, 200, cfg)
	if len(reads) != 200 {
		t.Fatalf("got %d reads", len(reads))
	}
	for i, r := range reads {
		if r.ID != i {
			t.Fatalf("read %d has ID %d", i, r.ID)
		}
		if len(r.Seq) != cfg.ReadLen {
			t.Fatalf("read %d length %d, want %d", i, len(r.Seq), cfg.ReadLen)
		}
		if len(r.Qual) != len(r.Seq) {
			t.Fatalf("read %d qual length mismatch", i)
		}
		if r.TruePos < 0 || r.TruePos+cfg.ReadLen > len(ref.Seq) {
			t.Fatalf("read %d TruePos %d out of range", i, r.TruePos)
		}
	}
}

func TestSimulateErrorRate(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 100000, 5)
	cfg := SimulatorConfig{ReadLen: 101, SubRate: 0.01, RevCompProb: 0, Seed: 11}
	reads := Simulate(ref, 500, cfg)
	mismatches, total := 0, 0
	for _, r := range reads {
		frag := ref.Seq[r.TruePos : r.TruePos+cfg.ReadLen]
		for i := range r.Seq {
			total++
			if r.Seq[i] != frag[i] {
				mismatches++
			}
		}
	}
	rate := float64(mismatches) / float64(total)
	if rate < 0.005 || rate > 0.02 {
		t.Errorf("observed substitution rate %.4f, want near 0.01", rate)
	}
}

func TestSimulateStrandMix(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 50000, 3)
	reads := Simulate(ref, 400, ShortReadConfig(21))
	rev := 0
	for _, r := range reads {
		if r.TrueRev {
			rev++
		}
	}
	if rev < 120 || rev > 280 {
		t.Errorf("reverse-strand reads = %d/400, want roughly half", rev)
	}
}

func TestSimulatePanicsOnBadConfig(t *testing.T) {
	t.Parallel()
	ref := Generate(HumanLike(), 1000, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero read length")
		}
	}()
	Simulate(ref, 1, SimulatorConfig{})
}

func TestLongReadConfig(t *testing.T) {
	t.Parallel()
	ref := Generate(ElegansLike, 50000, 4)
	reads := Simulate(ref, 10, LongReadConfig(2))
	for _, r := range reads {
		if len(r.Seq) != 1000 {
			t.Fatalf("long read length %d", len(r.Seq))
		}
	}
}

func TestGenerateProfilesAreDistinct(t *testing.T) {
	t.Parallel()
	// The Fig. 14 species proxies must produce genuinely different
	// sequences and different repeat statistics under the same seed.
	profiles := []Profile{HumanLike(), ClitarchusLike, ZapusLike, CamelusLike, VenustaLike, ElegansLike}
	seen := map[string]string{}
	for _, p := range profiles {
		ref := Generate(p, 20000, 7)
		head := ref.Seq[:200].String()
		if other, dup := seen[head]; dup {
			t.Fatalf("profiles %s and %s generated identical sequence", p.Name, other)
		}
		seen[head] = p.Name
	}
}

func TestFragmentFractionDrivesMultiMapping(t *testing.T) {
	t.Parallel()
	// More repeat fragments must produce more multi-chain reads — the
	// knob behind the short-hit mass of the Fig. 9(a) distribution.
	base := HumanLike()
	none := base
	none.FragmentFraction = 0
	none.InterspersedFraction = 0
	refFrag := Generate(base, 60000, 9)
	refNone := Generate(none, 60000, 9)
	k := 16
	count := func(ref *Reference) int {
		counts := map[string]int{}
		for i := 0; i+k <= len(ref.Seq); i += 4 {
			counts[ref.Seq[i:i+k].String()]++
		}
		multi := 0
		for _, c := range counts {
			if c > 2 {
				multi++
			}
		}
		return multi
	}
	if count(refFrag) <= count(refNone)*2 {
		t.Errorf("fragments did not raise k-mer multiplicity: %d vs %d", count(refFrag), count(refNone))
	}
}

// gcFraction returns the fraction of G/C bases in s.
func gcFraction(s seq.Seq) float64 {
	gc := 0
	for _, c := range s {
		if c == 1 || c == 2 {
			gc++
		}
	}
	return float64(gc) / float64(len(s))
}
