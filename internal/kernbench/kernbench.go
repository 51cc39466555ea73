// Package kernbench defines the repository's before/after kernel
// benchmark suite in one place, so `go test -bench` (kernbench_test.go)
// and the `nvwa-bench -kernels` JSON emitter run the exact same
// measurement bodies.
//
// Every case pairs an optimized kernel with a retained reference, a
// plain function kept as the kernel's correctness oracle, so the
// reported speedups compare against the original cost profile, not a
// re-optimized stand-in. A reference path that leaves the tree takes
// its row with it.
//
//   - align.Extend: full-row DP (ExtendReference) vs the z-drop-aware
//     shrinking-band kernel (leaf row pass over a query profile) with
//     reused Scratch, on short-read, 200 bp and 1 kbp flank shapes.
//   - fmindex.Seeds: map-based, allocating, LUT-free three-pass
//     seeding (SeedsReference) vs workspace seeding with the k-mer LUT
//     jump-start, both over the index's one interleaved rank path.
//   - fmindex.Seeds/LUT: workspace seeding with a 1-mer table (plain
//     stepwise search) vs the same with the default k-mer LUT
//     jump-start.
//   - sim.Schedule: closure events (one allocation each) vs pooled
//     Task events.
//   - accel.MergeReports: the fresh-scratch reference shard merge vs
//     the reused zero-alloc MergeAcc reduction.
package kernbench

import (
	"math/rand"
	"sync"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/align"
	"nvwa/internal/fmindex"
	"nvwa/internal/sim"
)

// Case is one kernel's before/after benchmark pair.
type Case struct {
	// Kernel identifies the kernel and workload shape, e.g.
	// "align.Extend/101bp".
	Kernel string
	// Note says what each side runs.
	Note string
	// Before benchmarks the retained reference implementation.
	Before func(b *testing.B)
	// After benchmarks the optimized kernel.
	After func(b *testing.B)
}

// homologousPair returns a reference window and a diverged read: the
// read matches the reference prefix with one substitution every div
// bases, the shape seed extension sees on a real flank.
func homologousPair(seed int64, refLen, readLen, div int) (ref, read []byte) {
	rng := rand.New(rand.NewSource(seed))
	ref = make([]byte, refLen)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	read = make([]byte, readLen)
	copy(read, ref)
	for i := div; i < readLen; i += div {
		read[i] = (read[i] + 1 + byte(rng.Intn(3))) & 3
	}
	return ref, read
}

// repeatText plants tandem and dispersed repeats so all three seeding
// passes (SMEM, re-seed, repeat) do real work.
func repeatText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	unit := make([]byte, 13)
	for i := range unit {
		unit[i] = byte(rng.Intn(4))
	}
	t := make([]byte, 0, n+len(unit))
	for len(t) < n {
		if rng.Intn(3) == 0 {
			t = append(t, unit...)
		} else {
			t = append(t, byte(rng.Intn(4)))
		}
	}
	return t[:n]
}

// drawReads samples nReads reads of length readLen from text with ~5%
// substitutions.
func drawReads(seed int64, text []byte, nReads, readLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	reads := make([][]byte, nReads)
	for i := range reads {
		off := rng.Intn(len(text) - readLen)
		r := make([]byte, readLen)
		copy(r, text[off:off+readLen])
		for k := 0; k < readLen/20; k++ {
			r[rng.Intn(readLen)] = byte(rng.Intn(4))
		}
		reads[i] = r
	}
	return reads
}

var (
	seederOnce sync.Once
	seederText []byte
	seeder     *fmindex.Seeder
	seedReads  [][]byte

	stepwiseOnce   sync.Once
	stepwiseSeeder *fmindex.Seeder
)

func seedingData() (*fmindex.Seeder, [][]byte) {
	seederOnce.Do(func() {
		seederText = repeatText(101, 50000)
		seeder = fmindex.NewSeeder(seederText)
		seedReads = drawReads(103, seederText, 64, 101)
	})
	return seeder, seedReads
}

// stepwiseSeedingData indexes seedingData's text a second time with a
// 1-mer table in place of the default k-mer LUT: a 1-mer jump skips no
// extension step, so seeding runs plain stepwise search on the same
// interleaved layout and returns the same seeds and Stats.
func stepwiseSeedingData() (*fmindex.Seeder, [][]byte) {
	_, reads := seedingData()
	stepwiseOnce.Do(func() {
		stepwiseSeeder = fmindex.NewSeeder(seederText)
		if err := stepwiseSeeder.Bi().BuildLUT(1); err != nil {
			panic(err)
		}
	})
	return stepwiseSeeder, reads
}

// seedsWS benchmarks the warm-workspace SeedsWS loop over data's
// seeder and reads.
func seedsWS(data func() (*fmindex.Seeder, [][]byte)) func(*testing.B) {
	return func(b *testing.B) {
		sd, reads := data()
		var ws fmindex.Workspace
		var st fmindex.Stats
		for _, r := range reads {
			sd.SeedsWS(&ws, r, 15, 16, 8, &st) // warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sd.SeedsWS(&ws, reads[i%len(reads)], 15, 16, 8, &st)
		}
	}
}

// extendCase builds an align.Extend before/after pair over the given
// flank shape. initScore models the accumulated seed score; zdrop is
// the pipeline default.
func extendCase(name string, refLen, readLen, div, initScore int) Case {
	sc := align.BWAMEM()
	const zdrop = 50
	const pairs = 8
	build := func() ([][]byte, [][]byte) {
		refs := make([][]byte, pairs)
		reads := make([][]byte, pairs)
		for i := range refs {
			refs[i], reads[i] = homologousPair(int64(1000*refLen+i), refLen, readLen, div)
		}
		return refs, reads
	}
	return Case{
		Kernel: "align.Extend/" + name,
		Note:   "full-row DP (reference) vs shrinking-band DP: leaf row pass over a query profile in a reused Scratch",
		Before: func(b *testing.B) {
			refs, reads := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % pairs
				align.ExtendReference(refs[k], reads[k], sc, initScore, zdrop)
			}
		},
		After: func(b *testing.B) {
			refs, reads := build()
			var s align.Scratch
			for k := 0; k < pairs; k++ { // warm across the size distribution
				align.ExtendWithScratch(&s, refs[k], reads[k], sc, initScore, zdrop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % pairs
				align.ExtendWithScratch(&s, refs[k], reads[k], sc, initScore, zdrop)
			}
		},
	}
}

// Cases returns the kernel benchmark suite.
func Cases() []Case {
	cases := []Case{
		extendCase("101bp", 120, 101, 25, 19),
		extendCase("200bp-flank", 240, 200, 50, 19),
		// The long-read flank shape: a 1 kbp read's flank against its
		// reference window, one substitution per 11 bases (the ~9%
		// per-base error of genome.LongReadConfig).
		extendCase("1kbp-flank", 1008, 1000, 11, 19),
		{
			Kernel: "fmindex.Seeds/101bp",
			Note:   "map dedup, allocating passes, no LUT (SeedsReference) vs workspace + k-mer LUT jump-start, one interleaved rank path",
			Before: func(b *testing.B) {
				sd, reads := seedingData()
				var st fmindex.Stats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sd.SeedsReference(reads[i%len(reads)], 15, 16, 8, &st)
				}
			},
			After: seedsWS(seedingData),
		},
		{
			Kernel: "fmindex.Seeds/LUT",
			Note:   "interleaved occ blocks + stepwise search (1-mer table) vs + k-mer LUT jump-start",
			Before: seedsWS(stepwiseSeedingData),
			After:  seedsWS(seedingData),
		},
		{
			Kernel: "sim.Schedule/1k-events",
			Note:   "closure events (one allocation each) vs pooled Tasks",
			Before: func(b *testing.B) {
				var e sim.Engine
				n := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < 1024; j++ {
						jj := j
						e.At(e.Now()+int64(jj%7), func() { n += jj })
					}
					e.Run()
				}
			},
			After: func(b *testing.B) {
				var e sim.Engine
				t := &addTask{}
				for j := 0; j < 1024; j++ { // warm the queue's backing arrays
					e.AtTask(e.Now()+int64(j%7), t)
				}
				e.Run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < 1024; j++ {
						e.AtTask(e.Now()+int64(j%7), t)
					}
					e.Run()
				}
			},
		},
	}
	return append(cases, mergeCase())
}

// shardReports synthesises n deterministic per-shard Reports with the
// vector shapes a real scale-out run produces (utilization series,
// per-class counters), so the merge benchmark reduces realistic state.
func shardReports(n int) []*accel.Report {
	rng := rand.New(rand.NewSource(97))
	reps := make([]*accel.Report, n)
	for i := range reps {
		r := &accel.Report{
			Reads:     200 + rng.Intn(100),
			TotalHits: 700 + rng.Intn(400),
			Cycles:    int64(9000 + rng.Intn(4000)),
			Switches:  120 + rng.Intn(60),
			SUUtil:    0.3 + 0.5*rng.Float64(),
			EUUtil:    0.2 + 0.5*rng.Float64(),
			EUPEUtil:  0.1 + 0.4*rng.Float64(),
		}
		r.SUSeries = make([]float64, 64)
		r.EUSeries = make([]float64, 64)
		for j := 0; j < 64; j++ {
			r.SUSeries[j] = rng.Float64()
			r.EUSeries[j] = rng.Float64()
		}
		r.PerClassEUUtil = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		r.AllocStats.Optimal = 400 + rng.Intn(200)
		r.AllocStats.NearOptimal = 100 + rng.Intn(100)
		r.AllocStats.PerClassOptimal = []int{rng.Intn(200), rng.Intn(200), rng.Intn(200)}
		r.AllocStats.PerClassTotal = []int{200 + rng.Intn(100), 200 + rng.Intn(100), 200 + rng.Intn(100)}
		r.HBM.Accesses = int64(4000 + rng.Intn(2000))
		r.HBM.RowHits = r.HBM.Accesses - int64(rng.Intn(300))
		r.HBM.RowMisses = r.HBM.Accesses - r.HBM.RowHits
		r.HBM.Bytes = r.HBM.Accesses * 64
		r.HBM.EnergyPJ = float64(r.HBM.Accesses) * 12.5
		r.Energy.StaticJ = 1e-5 * rng.Float64()
		r.Energy.DynamicJ = 1e-5 * rng.Float64()
		r.Energy.HBMJ = 1e-6 * rng.Float64()
		r.Energy.TotalJ = r.Energy.StaticJ + r.Energy.DynamicJ + r.Energy.HBMJ
		reps[i] = r
	}
	return reps
}

// mergeCase pairs the fresh-scratch reference shard merge against the
// reused MergeAcc reduction over 16 synthetic shard Reports.
func mergeCase() Case {
	return Case{
		Kernel: "accel.MergeReports/16-shards",
		Note:   "fresh-scratch reference merge vs reused zero-alloc MergeAcc reduction",
		Before: func(b *testing.B) {
			reps := shardReports(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				accel.MergeReportsReference(reps, 1.0)
			}
		},
		After: func(b *testing.B) {
			reps := shardReports(16)
			acc := accel.NewMergeAcc()
			acc.Reset()
			for _, r := range reps { // warm the retained scratch
				acc.Add(r)
			}
			acc.Merged(1.0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset()
				for _, r := range reps {
					acc.Add(r)
				}
				acc.Merged(1.0)
			}
		},
	}
}

// addTask is the pooled benchmark task for the scheduling case.
type addTask struct{ n int }

// Fire implements sim.Task.
func (t *addTask) Fire() { t.n++ }
