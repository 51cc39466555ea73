// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. V). Each experiment is a function returning
// a structured result with a Format method that prints the same rows
// or series the paper reports. DESIGN.md maps experiment IDs to the
// modules involved; EXPERIMENTS.md records paper-versus-measured
// values.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/core"
	"nvwa/internal/extsched"
	"nvwa/internal/genome"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// Env is a reusable workload: a synthetic reference, its index, and a
// simulated read set. Building the index dominates setup time, so
// experiments share an Env where possible. An Env is safe for
// concurrent use: the aligner and index are read-only after
// construction (AlignAll already exercises them from many goroutines),
// and every simulation builds a private accel.System that replays the
// Env's one Memo.
type Env struct {
	// Ref is the synthetic reference genome.
	Ref *genome.Reference
	// Aligner owns the FM-index and the software pipeline.
	Aligner *pipeline.Aligner
	// Reads are the simulated read sequences.
	Reads []seq.Seq
	// Records keeps the simulation ground truth for accuracy checks.
	Records []genome.Read
	// Classes is the hybrid EU pool derived from this workload's hit
	// distribution via Eq. (4)-(5), as Sec. V-A prescribes.
	Classes []core.EUClass

	memoOnce sync.Once
	memo     *accel.Memo
}

// NewEnv builds the standard short-read workload: a human-like
// reference and 101 bp Illumina-like reads (the NA12878 stand-in).
func NewEnv(refLen, numReads int, seed int64) *Env {
	return NewEnvProfile(genome.HumanLike(), genome.ShortReadConfig(seed+1), refLen, numReads, seed)
}

// NewEnvProfile builds a workload from an explicit genome profile and
// read simulator configuration (the Fig. 14 species proxies).
func NewEnvProfile(p genome.Profile, rc genome.SimulatorConfig, refLen, numReads int, seed int64) *Env {
	ref := genome.Generate(p, refLen, seed)
	aligner := pipeline.New(ref.Seq, pipeline.DefaultOptions())
	records := genome.Simulate(ref, numReads, rc)
	reads := make([]seq.Seq, len(records))
	for i, r := range records {
		reads[i] = r.Seq
	}
	env := &Env{Ref: ref, Aligner: aligner, Reads: reads, Records: records}
	sample := reads
	if len(sample) > 500 {
		sample = sample[:500]
	}
	classes, err := accel.DeriveEUClasses(aligner, sample, extsched.PowerOfTwoSizes(4, 16), core.DefaultConfig().TotalPEs())
	if err != nil {
		// Degenerate workloads (no hits) fall back to the Table I pool.
		classes = core.DefaultConfig().EUClasses
	}
	env.Classes = classes
	return env
}

// NvWaOptions returns the full NvWa configuration with this workload's
// derived EU pool.
func (e *Env) NvWaOptions() accel.Options {
	o := accel.NvWaOptions()
	o.Config.EUClasses = e.Classes
	return o
}

// BaselineOptions returns the SUs+EUs comparison system.
func (e *Env) BaselineOptions() accel.Options { return accel.BaselineOptions() }

// RunNvWa simulates the full NvWa system on the workload.
func (e *Env) RunNvWa() *accel.Report { return e.run(e.NvWaOptions()) }

// RunBaseline simulates the SUs+EUs baseline on the workload.
func (e *Env) RunBaseline() *accel.Report { return e.run(e.BaselineOptions()) }

// RunNvWaObserved simulates the full NvWa system with an explicit
// observer attached (metrics, trace, invariants), for the CLI's
// -trace/-metrics flags. The Report is byte-identical to RunNvWa's.
func (e *Env) RunNvWaObserved(ob *obs.Observer) *accel.Report {
	o := e.NvWaOptions()
	o.Obs = ob
	return e.run(o)
}

// Memo returns the workload's shared functional-replay cache, building
// it on first use (in parallel across reads). The cache covers the
// default FM-index front end; systems configured with another Seeder
// ignore it.
func (e *Env) Memo() *accel.Memo {
	e.memoOnce.Do(func() {
		e.memo = accel.BuildMemo(e.Aligner, nil, e.Reads, 0)
	})
	return e.memo
}

// run simulates one configuration on one chip. Options are
// constructed internally, so an error is a bug.
func (e *Env) run(o accel.Options) *accel.Report {
	rep, _, err := e.simulate(accel.ShardedOptions{Options: o, Shards: 1})
	if err != nil {
		panic(err)
	}
	return rep
}

// simulate is where every Env-backed simulation runs: on the scale-out
// engine (one shard is the plain System) over the workload, replaying
// the Env's Memo. Under `go test` a run without its own observer
// carries the scheduler invariant checker (hit conservation, round
// soundness, buffer bounds, monotone time, and the cross-shard
// conservation equation after a merge), so a regression in any
// figure's code path fails loudly instead of skewing numbers.
// Observation never changes Reports. It returns the merged Report, the
// per-shard Reports (nil unsharded) and the construction or watchdog
// error.
func (e *Env) simulate(so accel.ShardedOptions) (*accel.Report, []*accel.Report, error) {
	so.Memo = e.Memo()
	var inv *obs.Invariants
	if so.Obs == nil && testing.Testing() {
		ob := obs.NewInvariantsOnly()
		so.Obs = ob
		inv = ob.Inv
	}
	sys, err := accel.NewSharded(e.Aligner, so)
	if err != nil {
		return nil, nil, err
	}
	rep, parts, err := sys.RunDetailed(e.Reads)
	if inv != nil {
		if ierr := inv.Err(); ierr != nil {
			panic(fmt.Sprintf("experiments: scheduler invariant violated (%s): %v", sys.Describe(), ierr))
		}
	}
	return rep, parts, err
}

// hostPasses is k, the number of timed passes behind every host-timed
// figure: the software baseline is the median of k passes, and Fig. 2
// keeps each read's minimum over k passes. One pass on a shared host
// swings these figures by a quarter between identical runs.
const hostPasses = 3

// softwareRPS returns the software-pipeline throughput: the runner's
// pinned deterministic value when set, otherwise the median
// multi-threaded wall-clock rate of hostPasses passes. The passes are
// warm: every caller first simulates the workload, and the Memo build
// behind that ran the same seeding and extension over every read.
func (e *Env) softwareRPS(r *Runner) float64 {
	if r != nil && r.swRPS > 0 {
		return r.swRPS
	}
	rps := make([]float64, hostPasses)
	for i := range rps {
		_, _, rps[i] = e.Aligner.AlignAll(e.Reads, 0)
	}
	sort.Float64s(rps)
	return rps[hostPasses/2]
}
