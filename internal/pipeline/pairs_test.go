package pipeline

import (
	"math/rand"
	"testing"

	"nvwa/internal/genome"
	"nvwa/internal/seq"
)

// readPair is a simulated FR paired-end fragment: r1 is read from the
// forward strand at pos1, r2 from the reverse strand at pos2, the end
// of the insert.
type readPair struct {
	r1, r2     seq.Seq
	pos1, pos2 int
}

// simulatePairs samples n 2x101 bp pairs with 350+-50 bp inserts (the
// standard Illumina library) and 1% substitutions from ref.
func simulatePairs(ref seq.Seq, n int, seed int64) []readPair {
	const readLen, mean, sd = 101, 350.0, 50.0
	rng := rand.New(rand.NewSource(seed))
	mutate := func(s seq.Seq) seq.Seq {
		for i := range s {
			if rng.Float64() < 0.01 {
				s[i] = (s[i] + 1 + byte(rng.Intn(3))) % 4
			}
		}
		return s
	}
	pairs := make([]readPair, n)
	for i := range pairs {
		insert := min(max(int(mean+rng.NormFloat64()*sd), readLen), int(mean+4*sd))
		pos := rng.Intn(len(ref) - insert)
		end := pos + insert
		pairs[i] = readPair{
			r1:   mutate(ref[pos : pos+readLen].Clone()),
			r2:   mutate(ref[end-readLen : end].RevComp()),
			pos1: pos,
			pos2: end - readLen,
		}
	}
	return pairs
}

func TestAlignPairRecoversProperPairs(t *testing.T) {
	ref := genome.Generate(genome.HumanLike(), 80000, 43)
	a := New(ref.Seq, DefaultOptions())
	pairs := simulatePairs(ref.Seq, 80, 44)
	po := DefaultPairOptions()
	proper, correct := 0, 0
	for i, p := range pairs {
		res := a.AlignPair(i, p.r1, p.r2, po)
		if !res.R1.Found || !res.R2.Found {
			continue
		}
		if res.Proper {
			proper++
			if res.Insert < po.MinInsert || res.Insert > po.MaxInsert {
				t.Fatalf("pair %d: proper but insert %d out of bounds", i, res.Insert)
			}
		}
		if abs(res.R1.RefBeg-p.pos1) <= 10 && abs(res.R2.RefBeg-p.pos2) <= 10 {
			correct++
		}
	}
	if proper < 60 {
		t.Errorf("only %d/80 pairs proper", proper)
	}
	if correct < 60 {
		t.Errorf("only %d/80 pairs at the true loci", correct)
	}
}

func TestAlignPairConcordanceRescuesRepeats(t *testing.T) {
	// A repeat-region read that multi-maps alone should prefer the
	// placement concordant with its uniquely-mapping mate.
	ref := genome.Generate(genome.HumanLike(), 80000, 45)
	a := New(ref.Seq, DefaultOptions())
	pairs := simulatePairs(ref.Seq, 150, 46)
	po := DefaultPairOptions()
	pairCorrect, soloCorrect := 0, 0
	n := 0
	for i, p := range pairs {
		solo := a.Align(2*i, p.r1)
		res := a.AlignPair(i, p.r1, p.r2, po)
		if !solo.Found || !res.R1.Found {
			continue
		}
		n++
		if abs(solo.RefBeg-p.pos1) <= 10 {
			soloCorrect++
		}
		if abs(res.R1.RefBeg-p.pos1) <= 10 {
			pairCorrect++
		}
	}
	if pairCorrect < soloCorrect {
		t.Errorf("pairing reduced accuracy: %d vs %d of %d", pairCorrect, soloCorrect, n)
	}
}

func TestAlignPairUnmappableEnd(t *testing.T) {
	ref := genome.Generate(genome.HumanLike(), 40000, 47)
	a := New(ref.Seq, DefaultOptions())
	junk := make([]byte, 101) // poly-A: no usable seeds
	good := ref.Seq[1000:1101].Clone()
	res := a.AlignPair(0, good, junk, DefaultPairOptions())
	if !res.R1.Found {
		t.Error("good end should align")
	}
	if res.Proper {
		t.Error("pair with unmapped end cannot be proper")
	}
}
