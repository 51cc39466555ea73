// Package genome synthesises reference genomes and sequencing read sets.
//
// The paper evaluates on GRCh38 + NA12878 and on six DWGSIM-simulated
// read sets. Neither the 3 Gbp human assembly nor real FASTQ archives
// are available in this environment, so this package provides the
// closest synthetic equivalent: a reference generator with controllable
// GC content, tandem repeats, and interspersed (transposon-like)
// repeats — the genome features that create the per-read seeding-time
// and hit-length diversity NvWa's schedulers exploit — plus a
// DWGSIM-like read simulator with substitution and indel errors.
package genome

import (
	"fmt"
	"math/rand"

	"nvwa/internal/seq"
)

// Profile controls the statistical character of a synthetic reference.
// Different species proxies (Fig. 14) use different profiles.
type Profile struct {
	// Name labels the profile (e.g. "H.sapiens-like").
	Name string
	// GC is the target G+C fraction of random background sequence.
	GC float64
	// TandemRepeatFraction is the fraction of the genome covered by
	// short tandem repeats (microsatellite-like).
	TandemRepeatFraction float64
	// InterspersedFraction is the fraction covered by copies of a small
	// family of long repeat elements (LINE/SINE-like). These create
	// multi-hit seeds, the main source of hit-count diversity.
	InterspersedFraction float64
	// RepeatElementLen is the length of each interspersed element.
	RepeatElementLen int
	// RepeatFamilies is the number of distinct interspersed elements.
	RepeatFamilies int
	// RepeatDivergence is the per-base mutation rate applied to each
	// inserted repeat copy, so copies are near- but not exact duplicates.
	RepeatDivergence float64
	// FragmentFraction is the fraction of the genome covered by short
	// (20-80 bp) fragments of the repeat elements — truncated
	// transposon insertions. Reads overlapping a fragment seed short
	// chains at every other copy of the element whose extensions die
	// immediately, producing the numerous short hits that dominate the
	// paper's Fig. 9(a) hit-length distribution.
	FragmentFraction float64
}

// HumanLike mimics the repeat structure of the human genome at reduced
// scale: ~47% of the sequence in repeats, 41% GC, with young
// transposon families at a few percent divergence (the property that
// makes a fraction of reads multi-mapping, which drives the hit-count
// and hit-length diversity NvWa schedules around).
func HumanLike() Profile {
	return Profile{
		Name:                 "H.sapiens-like",
		GC:                   0.41,
		TandemRepeatFraction: 0.05,
		InterspersedFraction: 0.12,
		FragmentFraction:     0.22,
		RepeatElementLen:     600,
		RepeatFamilies:       20,
		RepeatDivergence:     0.025,
	}
}

// Profiles for the Fig. 14 species proxies. The parameters follow the
// coarse repeat-content and GC statistics reported for each assembly;
// what matters for the experiment is that they differ from each other
// and from the human profile, producing distinct hit distributions.
var (
	ClitarchusLike = Profile{Name: "C.hookeri-like", GC: 0.37, TandemRepeatFraction: 0.08, InterspersedFraction: 0.40, FragmentFraction: 0.20, RepeatElementLen: 800, RepeatFamilies: 8, RepeatDivergence: 0.05}
	ZapusLike      = Profile{Name: "Z.hudsonius-like", GC: 0.40, TandemRepeatFraction: 0.06, InterspersedFraction: 0.25, FragmentFraction: 0.14, RepeatElementLen: 500, RepeatFamilies: 10, RepeatDivergence: 0.04}
	CamelusLike    = Profile{Name: "C.dromedarius-like", GC: 0.41, TandemRepeatFraction: 0.04, InterspersedFraction: 0.22, FragmentFraction: 0.12, RepeatElementLen: 550, RepeatFamilies: 9, RepeatDivergence: 0.03}
	VenustaLike    = Profile{Name: "V.ellipsiformis-like", GC: 0.35, TandemRepeatFraction: 0.10, InterspersedFraction: 0.32, FragmentFraction: 0.18, RepeatElementLen: 700, RepeatFamilies: 6, RepeatDivergence: 0.06}
	ElegansLike    = Profile{Name: "C.elegans-like", GC: 0.35, TandemRepeatFraction: 0.04, InterspersedFraction: 0.13, FragmentFraction: 0.09, RepeatElementLen: 400, RepeatFamilies: 7, RepeatDivergence: 0.03}
)

// Reference is a synthetic reference genome.
type Reference struct {
	// Name of the assembly.
	Name string
	// Seq is the forward-strand sequence.
	Seq seq.Seq
	// Profile used to generate it.
	Profile Profile
}

// Generate builds a synthetic reference of length n from the profile,
// deterministically for a given seed.
func Generate(p Profile, n int, seed int64) *Reference {
	rng := rand.New(rand.NewSource(seed))
	g := make(seq.Seq, 0, n)

	// Pre-build the interspersed repeat family.
	family := make([]seq.Seq, p.RepeatFamilies)
	for i := range family {
		family[i] = randomGC(rng, p.RepeatElementLen, p.GC)
	}

	// The profile fractions are base-pair coverage targets, so the
	// per-iteration draw probability of each segment type is weighted
	// by the inverse of its expected length.
	const (
		fragMeanLen   = 35.0
		tandemMeanLen = 171.0 // ~7 bp unit x ~24.5 copies
		bgMeanLen     = 600.0
	)
	wInter, wFrag := 0.0, 0.0
	if p.RepeatFamilies > 0 {
		wInter = p.InterspersedFraction / float64(p.RepeatElementLen)
		wFrag = p.FragmentFraction / fragMeanLen
	}
	wTandem := p.TandemRepeatFraction / tandemMeanLen
	bgFrac := 1 - p.InterspersedFraction - p.FragmentFraction - p.TandemRepeatFraction
	if bgFrac < 0.05 {
		bgFrac = 0.05
	}
	wBg := bgFrac / bgMeanLen
	wTotal := wInter + wFrag + wTandem + wBg

	for len(g) < n {
		r := rng.Float64() * wTotal
		switch {
		case r < wInter:
			// Insert a diverged copy of a repeat element.
			el := family[rng.Intn(len(family))]
			g = append(g, mutate(rng, el, p.RepeatDivergence)...)
		case r < wInter+wFrag:
			// Insert a short 5'-truncated fragment of a repeat element.
			// Like real LINE insertions, truncation removes the 5' end,
			// so every fragment of a family shares the element's 3'
			// tail — the region whose short seeds hit dozens of loci.
			el := family[rng.Intn(len(family))]
			l := 15 + rng.Intn(31)
			g = append(g, mutate(rng, el[len(el)-l:], p.RepeatDivergence)...)
		case r < wInter+wFrag+wTandem:
			// Insert a tandem repeat: unit of 2-12 bp repeated.
			unit := randomGC(rng, 2+rng.Intn(11), p.GC)
			copies := 5 + rng.Intn(40)
			for c := 0; c < copies && len(g) < n; c++ {
				g = append(g, unit...)
			}
		default:
			// Random background segment.
			g = append(g, randomGC(rng, 200+rng.Intn(800), p.GC)...)
		}
	}
	g = g[:n]
	return &Reference{Name: p.Name, Seq: g, Profile: p}
}

// randomGC draws n bases with the requested GC fraction.
func randomGC(rng *rand.Rand, n int, gc float64) seq.Seq {
	out := make(seq.Seq, n)
	for i := range out {
		if rng.Float64() < gc {
			out[i] = 1 + seq.Base(rng.Intn(2)) // C or G
		} else {
			out[i] = 3 * seq.Base(rng.Intn(2)) // A or T
		}
	}
	return out
}

// mutate returns a copy of s with each base substituted at rate p.
func mutate(rng *rand.Rand, s seq.Seq, p float64) seq.Seq {
	out := s.Clone()
	for i := range out {
		if rng.Float64() < p {
			out[i] = seq.Base((int(out[i]) + 1 + rng.Intn(3)) % 4)
		}
	}
	return out
}

// Read is a simulated sequencing read.
type Read struct {
	// ID is the read's index within its set.
	ID int
	// Name is the FASTQ-style identifier.
	Name string
	// Seq holds the 2-bit coded bases.
	Seq seq.Seq
	// Qual holds per-base Phred+33 qualities (same length as Seq).
	Qual []byte
	// TruePos is the 0-based reference position the read was sampled
	// from (forward strand coordinates), for accuracy checks.
	TruePos int
	// TrueRev reports whether the read was sampled from the reverse
	// complement strand.
	TrueRev bool
}

// SimulatorConfig controls the DWGSIM-like read simulator.
type SimulatorConfig struct {
	// ReadLen is the read length in bp (paper: 101 for short reads,
	// >=1000 for long reads).
	ReadLen int
	// SubRate is the per-base substitution error rate (Illumina ~1%).
	SubRate float64
	// InsRate and DelRate are per-base indel rates.
	InsRate float64
	DelRate float64
	// RevCompProb is the probability a read comes from the minus strand.
	RevCompProb float64
	// Seed makes the simulation reproducible.
	Seed int64
}

// ShortReadConfig mirrors NA12878/ERR194147: 101 bp Illumina-like reads.
func ShortReadConfig(seed int64) SimulatorConfig {
	return SimulatorConfig{ReadLen: 101, SubRate: 0.010, InsRate: 0.0002, DelRate: 0.0002, RevCompProb: 0.5, Seed: seed}
}

// LongReadConfig mirrors a 3rd-generation long-read set (>=1 kbp, higher
// error) used in Fig. 14's long-read experiment.
func LongReadConfig(seed int64) SimulatorConfig {
	return SimulatorConfig{ReadLen: 1000, SubRate: 0.05, InsRate: 0.02, DelRate: 0.02, RevCompProb: 0.5, Seed: seed}
}

// CheckRefLen reports why a refLen bp reference cannot host the
// readLen bp reads Simulate samples (it needs refLen >= readLen + 2);
// Simulate panics on the same condition.
func CheckRefLen(refLen, readLen int) error {
	if refLen < readLen+2 {
		return fmt.Errorf("reference (%d bp) shorter than read length %d + 2", refLen, readLen)
	}
	return nil
}

// Simulate samples n reads from the reference under cfg.
func Simulate(ref *Reference, n int, cfg SimulatorConfig) []Read {
	if cfg.ReadLen <= 0 {
		panic("genome: SimulatorConfig.ReadLen must be positive")
	}
	if err := CheckRefLen(len(ref.Seq), cfg.ReadLen); err != nil {
		panic("genome: " + err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reads := make([]Read, n)
	for i := range reads {
		pos := rng.Intn(len(ref.Seq) - cfg.ReadLen - 1)
		frag := ref.Seq[pos : pos+cfg.ReadLen+1] // +1 slack for deletions
		rev := rng.Float64() < cfg.RevCompProb
		base := frag.Clone()
		if rev {
			base = frag.RevComp()
		}
		r := applyErrors(rng, base, cfg)
		qual := make([]byte, len(r))
		for q := range qual {
			qual[q] = byte('!' + 30 + rng.Intn(10)) // Q30-Q39
		}
		reads[i] = Read{
			ID:      i,
			Name:    fmt.Sprintf("%s_sim_%d_%d", ref.Name, pos, i),
			Seq:     r,
			Qual:    qual,
			TruePos: pos,
			TrueRev: rev,
		}
	}
	return reads
}

// applyErrors introduces substitutions and indels, returning exactly
// cfg.ReadLen bases.
func applyErrors(rng *rand.Rand, frag seq.Seq, cfg SimulatorConfig) seq.Seq {
	out := make(seq.Seq, 0, cfg.ReadLen)
	for i := 0; i < len(frag) && len(out) < cfg.ReadLen; i++ {
		r := rng.Float64()
		switch {
		case r < cfg.DelRate:
			// Skip this reference base.
		case r < cfg.DelRate+cfg.InsRate:
			out = append(out, seq.Base(rng.Intn(4)))
			if len(out) < cfg.ReadLen {
				out = append(out, frag[i])
			}
		case r < cfg.DelRate+cfg.InsRate+cfg.SubRate:
			out = append(out, seq.Base((int(frag[i])+1+rng.Intn(3))%4))
		default:
			out = append(out, frag[i])
		}
	}
	// Pad with random bases if deletions consumed the slack.
	for len(out) < cfg.ReadLen {
		out = append(out, seq.Base(rng.Intn(4)))
	}
	return out
}
