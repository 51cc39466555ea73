package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"nvwa/internal/accel"
	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/experiments"
	"nvwa/internal/extsched"
	"nvwa/internal/genome"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// workload is one set of inputs the benchmark runs. Each stresses a
// different part of the simulator; BENCHMARK.json and layers.json
// record why each was chosen.
type workload struct {
	name string
	// long selects 1 kbp reads. The hardware pool is still derived from
	// short reads on the same reference, as in Fig. 14.
	long bool
	// replay builds the functional Memo in set-up, so each job replays
	// only the cycle model: the eight-job sweep described in jobsFor.
	replay bool
}

var workloads = []workload{
	{name: "short-live"},
	{name: "sweep-replay", replay: true},
	{name: "long-live", long: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadSeed derives a workload's own seed from the --seed argument,
// so two workloads run with one seed never share inputs.
func workloadSeed(name string, seed int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, seed)
	return int64(h.Sum64() >> 2)
}

// scale sizes the inputs. A live workload's read set is large enough
// that its work changes by only a few percent from seed to seed; it is
// split into parts, one job each, so that a run of the default length
// still times each job dozens of times.
type scale struct {
	refLen      int // human-like reference, bp
	shortReads  int // 101 bp reads of short-live
	replayReads int // 101 bp reads of sweep-replay, all in every job
	longReads   int // 1 kbp reads of long-live
	liveParts   int // jobs a live workload's reads are split across
	poolSample  int // short reads the EU pool is derived from (Eq. 4-5)
	setupReps   int // set-ups per untraced run, spread over it; setup_s is their median
	minIters    int // iterations run even when the measured phase is over
}

var (
	// fullScale is the ROADMAP's default scale: a 200 kbp reference.
	fullScale = scale{refLen: 200_000, shortReads: 4000, replayReads: 4000, longReads: 48, liveParts: 8, poolSample: 500, setupReps: 7, minIters: 3}
	// smokeScale runs every code path in about a second.
	smokeScale = scale{refLen: 30_000, shortReads: 40, replayReads: 60, longReads: 16, liveParts: 4, poolSample: 40, setupReps: 1, minIters: 2}
)

const (
	// shards and checkpointEvery configure the sweep's sharded job: S=4
	// balanced, snapshotting every shard each 10k cycles.
	shards          = 4
	checkpointEvery = 10_000
	// forever is a StepUntil horizon beyond any run's makespan.
	forever = math.MaxInt64 >> 1
)

// env is one built workload: the experiments.Env the simulator runs
// on, and its reads split into the parts the jobs run.
type env struct {
	*experiments.Env
	parts []*part
}

// part is the read set of one or more jobs, with the software
// aligner's result for every read (the ground truth each simulated read
// is checked against) and, once built, its functional Memo. Read
// indices are local to the part.
type part struct {
	reads []seq.Seq
	truth []pipeline.Result
	memo  *accel.Memo
}

// setupTimes splits set-up across the layers it calls into.
type setupTimes struct {
	generate, index, simulate, derive, truth, memo time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.index + s.simulate + s.derive + s.truth + s.memo
}

// setUp builds the workload: reference, FM-index, reads, the Eq. 5 EU
// pool, the software ground truth, and on sweep-replay the Memo. It
// mirrors experiments.NewEnvProfile step by step so that each step can
// be timed. The reference comes from refSeed, which is fixed per
// workload like a real reference genome, and the reads from readSeed: a
// genome per seed would change the work per read by several percent
// from seed to seed.
func setUp(w workload, sc scale, refSeed, readSeed int64, workers int) (*env, setupTimes) {
	var st setupTimes
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}

	ref := genome.Generate(genome.HumanLike(), sc.refLen, refSeed)
	lap(&st.generate)
	aligner := pipeline.New(ref.Seq, pipeline.DefaultOptions())
	lap(&st.index)

	rc, n := genome.ShortReadConfig(readSeed), sc.shortReads
	switch {
	case w.long:
		rc, n = genome.LongReadConfig(readSeed), sc.longReads
	case w.replay:
		n = sc.replayReads
	}
	records := genome.Simulate(ref, n, rc)
	reads := seqs(records)
	sample := reads[:min(len(reads), sc.poolSample)]
	if w.long {
		sample = seqs(genome.Simulate(ref, sc.poolSample, genome.ShortReadConfig(readSeed+1)))
	}
	lap(&st.simulate)

	classes, err := accel.DeriveEUClasses(aligner, sample, extsched.PowerOfTwoSizes(4, 16), core.DefaultConfig().TotalPEs())
	if err != nil {
		// Degenerate workloads (no hits) fall back to the Table I pool,
		// as experiments.NewEnvProfile does.
		classes = core.DefaultConfig().EUClasses
	}
	lap(&st.derive)

	truth := make([]pipeline.Result, len(reads))
	for i, r := range reads {
		truth[i] = aligner.Align(i, r)
	}
	lap(&st.truth)

	e := &env{Env: &experiments.Env{Ref: ref, Aligner: aligner, Reads: reads, Records: records, Classes: classes}}
	if w.replay {
		e.parts = []*part{{reads: reads, truth: truth, memo: accel.BuildMemo(aligner, nil, reads, workers)}}
		lap(&st.memo)
		return e, st
	}
	size := (len(reads) + sc.liveParts - 1) / sc.liveParts
	for lo := 0; lo < len(reads); lo += size {
		hi := min(lo+size, len(reads))
		e.parts = append(e.parts, &part{reads: reads[lo:hi], truth: truth[lo:hi]})
	}
	return e, st
}

func seqs(records []genome.Read) []seq.Seq {
	out := make([]seq.Seq, len(records))
	for i, r := range records {
		out[i] = r.Seq
	}
	return out
}

// job is one simulation: one accel.New + Run, or one sharded Run.
type job struct {
	name string
	p    *part
	opts accel.Options
	// observe attaches metrics and invariants (trace off), the
	// -metrics path; an invariant violation fails the job.
	observe bool
	// sharded runs S=4 balanced shards with periodic checkpoints.
	sharded bool
	// sibling is the index of an earlier job of the same iteration whose
	// Results this job's must equal, or -1.
	sibling int
}

// nvwaJob is the index of the plain NvWa job in jobsFor's list.
func nvwaJob(w workload) int {
	if w.replay {
		return 1
	}
	return 0
}

// jobsFor lists one iteration's jobs. A live workload runs, on each
// part, the NvWa default configuration without a Memo: the path
// nvwa-sim and every non-memo experiment take. sweep-replay runs, over
// the Memo, the six Fig. 11 configurations (FIFO and Grouped
// allocators, both seed strategies), the observed NvWa job, and the
// sharded NvWa job.
func jobsFor(w workload, e *env) []job {
	nvwa := e.NvWaOptions()
	if !w.replay {
		jobs := make([]job, len(e.parts))
		for i, p := range e.parts {
			jobs[i] = job{name: fmt.Sprintf("nvwa/part%d", i), p: p, opts: nvwa, sibling: -1}
		}
		return jobs
	}
	withHUS := e.BaselineOptions()
	withHUS.Config.EUClasses = e.Classes
	withOCRA := withHUS
	withOCRA.SeedStrategy = accel.OneCycle
	ocraOnly := e.BaselineOptions()
	ocraOnly.SeedStrategy = accel.OneCycle
	haOnly := e.BaselineOptions()
	haOnly.AllocStrategy = coordinator.Grouped
	jobs := []job{
		{name: "baseline", opts: e.BaselineOptions(), sibling: -1},
		{name: "nvwa", opts: nvwa, sibling: -1},
		{name: "hus", opts: withHUS, sibling: -1},
		{name: "hus-ocra", opts: withOCRA, sibling: -1},
		{name: "ocra-only", opts: ocraOnly, sibling: -1},
		{name: "ha-only", opts: haOnly, sibling: -1},
		{name: "nvwa-observed", opts: nvwa, observe: true, sibling: -1},
		{name: "nvwa-sharded", opts: nvwa, sharded: true, sibling: 1},
	}
	for i := range jobs {
		jobs[i].p = e.parts[0]
		jobs[i].opts.Memo = e.parts[0].memo
	}
	return jobs
}

// runJob runs one job to completion. The error covers construction,
// the run itself, and the invariant checker of an observed job.
func runJob(a *pipeline.Aligner, j job, workers int) (*accel.Report, error) {
	o := j.opts
	var ob *obs.Observer
	if j.observe {
		ob = &obs.Observer{Metrics: obs.NewRegistry(), Inv: obs.NewInvariants()}
		o.Obs = ob
	}
	var rep *accel.Report
	var err error
	if j.sharded {
		var ss *accel.ShardedSystem
		ss, err = accel.NewSharded(a, accel.ShardedOptions{
			Options: o, Shards: shards, Policy: accel.ShardBalanced,
			Workers: workers, CheckpointEvery: checkpointEvery,
		})
		if err == nil {
			rep, err = ss.RunChecked(j.p.reads)
		}
	} else {
		var sys *accel.System
		sys, err = accel.New(a, o)
		if err == nil {
			rep, err = sys.RunChecked(j.p.reads)
		}
	}
	if err == nil && ob != nil {
		err = ob.Inv.Err()
	}
	return rep, err
}

// tally accumulates one run's jobs.
type tally struct {
	attempted, failed int // simulated reads checked, and those that failed
	checksFailed      []string

	jobMS    [][]float64 // probe-normalized time of each run of each job, by job index
	probeMS  []float64   // raw time of every probe
	simReads int
	simTime  time.Duration
	mallocs  uint64
	bytes    uint64
	peakHeap uint64
	gcCycles uint32
	gcPause  uint64 // ns

	swMS   [][]float64 // probe-normalized time of each software pass, by block index
	swTime time.Duration
	swNext int // the block the next software pass aligns

	first        []*accel.Report // the first iteration's Reports, in job order
	firstDigests []uint64        // their digests, once a traced run needs them
}

func (t *tally) allJobMS() []float64 {
	var all []float64
	for _, xs := range t.jobMS {
		all = append(all, xs...)
	}
	return all
}

// probe runs the probe and records its raw time.
func (t *tally) probe() time.Duration {
	d := probe()
	t.probeMS = append(t.probeMS, ms(d))
	return d
}

func (t *tally) failCheck(format string, args ...any) {
	t.checksFailed = append(t.checksFailed, fmt.Sprintf(format, args...))
}

// bench holds what every iteration of a run shares.
type bench struct {
	w       workload
	sc      scale
	e       *env
	jobs    []job
	blocks  []block // the software aligner's passes
	workers int
}

// iterate runs every job once, untraced, and returns the iteration's
// host time (the sum of its raw job times). Each job is recorded in
// probe-normalized time.
func (b *bench) iterate(t *tally) time.Duration {
	reps := make([]*accel.Report, len(b.jobs))
	var ms0, ms1 runtime.MemStats
	var sum time.Duration
	if t.jobMS == nil {
		t.jobMS = make([][]float64, len(b.jobs))
	}
	before := t.probe()
	for i, j := range b.jobs {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		rep, err := runJob(b.e.Aligner, j, b.workers)
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		after := t.probe()

		sum += d
		t.jobMS[i] = append(t.jobMS[i], ms(normalized(d, before, after)))
		before = after
		t.simReads += len(j.p.reads)
		t.simTime += d
		t.mallocs += ms1.Mallocs - ms0.Mallocs
		t.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		t.peakHeap = max(t.peakHeap, ms1.HeapInuse)
		t.gcCycles += ms1.NumGC - ms0.NumGC
		t.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs

		reps[i] = rep
		b.check(t, j, rep, err, reps)
	}
	if t.first == nil {
		t.first = reps
	}
	return sum
}

// check counts a job's failed reads: every read whose simulated
// (Found, Score) differs from the software aligner's, or every read of
// the job when it returned an error or its Results differ from its
// sibling job's.
func (b *bench) check(t *tally, j job, rep *accel.Report, err error, reps []*accel.Report) {
	n := len(j.p.reads)
	t.attempted += n
	switch {
	case err != nil:
		t.failed += n
		t.failCheck("%s: %v", j.name, err)
	case j.sibling >= 0 && !sameResults(rep, reps[j.sibling]):
		t.failed += n
		t.failCheck("%s: Results differ from %s", j.name, b.jobs[j.sibling].name)
	default:
		t.failed += wrongReads(rep, j.p.truth)
	}
}

func wrongReads(rep *accel.Report, truth []pipeline.Result) int {
	if rep == nil || len(rep.Results) != len(truth) {
		return len(truth)
	}
	n := 0
	for i, r := range rep.Results {
		if r.Found != truth[i].Found || r.Score != truth[i].Score {
			n++
		}
	}
	return n
}

func sameResults(a, b *accel.Report) bool {
	if a == nil || b == nil || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// swBlockBases is the least number of bases one software-aligner pass
// aligns: several times the probe's time, so that a run holds hundreds
// of passes and the probes between them cost little.
const swBlockBases = 10_000

// block is a run of consecutive reads of one part.
type block struct {
	p      *part
	lo, hi int
}

// swBlocks splits every read of the workload into blocks of at least
// swBlockBases bases.
func swBlocks(e *env) []block {
	var out []block
	for _, p := range e.parts {
		for lo := 0; lo < len(p.reads); {
			hi, bases := lo, 0
			for hi < len(p.reads) && bases < swBlockBases {
				bases += len(p.reads[hi])
				hi++
			}
			out = append(out, block{p, lo, hi})
			lo = hi
		}
	}
	return out
}

// swBatch runs software passes until the software aligner has had a
// quarter of the simulator's time, about a fifth of the phase,
// recording each pass in probe-normalized time.
func (b *bench) swBatch(t *tally) {
	if t.swMS == nil {
		t.swMS = make([][]float64, len(b.blocks))
	}
	before := t.probe()
	for t.swTime < t.simTime/4 {
		k, d := b.swPass(t)
		after := t.probe()
		t.swMS[k] = append(t.swMS[k], ms(normalized(d, before, after)))
		t.swTime += d
		before = after
	}
}

// swPass aligns the next block, in turn, with the single-thread
// software aligner, checks each result against the ground truth, and
// returns the block's index and the wall time. A deviation means the
// aligner is not deterministic.
func (b *bench) swPass(t *tally) (int, time.Duration) {
	k := t.swNext
	t.swNext = (k + 1) % len(b.blocks)
	bl := b.blocks[k]
	start := time.Now()
	wrong := 0
	for i := bl.lo; i < bl.hi; i++ {
		res := b.e.Aligner.Align(i, bl.p.reads[i])
		if res.Found != bl.p.truth[i].Found || res.Score != bl.p.truth[i].Score {
			wrong++
		}
	}
	d := time.Since(start)
	if wrong > 0 {
		t.failCheck("software aligner: %d of %d reads differ from the first pass", wrong, bl.hi-bl.lo)
	}
	return k, d
}

// ensureMemo builds the functional Memo of each part of a live
// workload (built in set-up on sweep-replay) and returns the build time.
func (b *bench) ensureMemo() time.Duration {
	start := time.Now()
	for _, p := range b.e.parts {
		if p.memo == nil {
			p.memo = accel.BuildMemo(b.e.Aligner, nil, p.reads, b.workers)
		}
	}
	return time.Since(start)
}

// replay is the first NvWa job replaying over its part's Memo.
func (b *bench) replay() job {
	j := b.jobs[nvwaJob(b.w)]
	j.opts.Memo = j.p.memo
	return j
}

// siblingChecks runs the sibling paths of the first NvWa job: the same
// job replayed over the Memo must produce a byte-identical Report, and
// so must a run checkpointed at half its makespan and finished by
// accel.Restore. A mismatch fails that job's reads.
func (b *bench) siblingChecks(t *tally) {
	b.ensureMemo()
	ref := t.first[nvwaJob(b.w)]
	want := digest(ref)
	j := b.replay()
	n := len(j.p.reads)

	sys, err := accel.New(b.e.Aligner, j.opts)
	if err == nil {
		var rep *accel.Report
		rep, err = sys.RunChecked(j.p.reads)
		if err == nil && digest(rep) != want {
			err = fmt.Errorf("memo replay Report differs from the first NvWa job's")
		}
	}
	if err != nil {
		t.failed += n
		t.failCheck("memo sibling: %v", err)
	}
	if _, err := b.resume(nil, -1, ref.Cycles/2, want); err != nil {
		t.failed += n
		t.failCheck("restore sibling: %v", err)
	}
}

// resume runs the NvWa job over the Memo to cycle at, snapshots and
// encodes it, restores the snapshot into a fresh system, finishes that
// run, and checks its Report against the uninterrupted run's digest.
// It returns the encoded checkpoint's size. rec, when not nil, records
// the snapshot, encode and restore spans under parent.
func (b *bench) resume(rec *recorder, parent int, at int64, want uint64) (int, error) {
	j := b.replay()
	o := j.opts
	sys, err := accel.New(b.e.Aligner, o)
	if err != nil {
		return 0, err
	}
	sys.Feed(j.p.reads)
	if _, err := sys.StepUntil(at); err != nil {
		return 0, err
	}
	s := rec.begin("ckpt.snapshot", parent)
	ck, err := sys.Snapshot()
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin("ckpt.encode", parent)
	size := len(ck.Encode())
	rec.end(s)

	// A restored system consumes only a Memo keyed to its resume
	// identity; re-key a shallow copy so the shared Memo stays fresh.
	memo := *j.p.memo
	o.Memo = memo.KeyedToResume(ck.Hash())
	s = rec.begin("ckpt.restore", parent)
	rs, err := accel.Restore(b.e.Aligner, o, j.p.reads, ck)
	rec.end(s)
	if err != nil {
		return size, err
	}
	if _, err := rs.StepUntil(forever); err != nil {
		return size, err
	}
	rep, err := rs.DrainChecked()
	if err != nil {
		return size, err
	}
	if digest(rep) != want {
		return size, fmt.Errorf("run restored at cycle %d finished to a different Report", at)
	}
	return size, nil
}

// digest fingerprints a Report's JSON encoding: equal digests mean
// byte-identical Reports. It keeps 48 bits so that it prints exactly
// as a JSON number.
func digest(reps ...*accel.Report) uint64 {
	h := fnv.New64a()
	for _, r := range reps {
		b, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(h, "unencodable report: %v", err)
			continue
		}
		h.Write(b)
	}
	return h.Sum64() & (1<<48 - 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
