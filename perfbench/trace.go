package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"nvwa/internal/accel"
	"nvwa/internal/core"
	"nvwa/internal/obs"
	"nvwa/internal/seq"
)

// span is one timed call, or batch of calls, into a layer. Spans are
// recorded by the benchmark around the public functions it calls; the
// simulator itself is not instrumented.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = time.Since(r.t0).Nanoseconds()
	}
}

func (r *recorder) dur(i int) time.Duration {
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

// total is the summed duration of the spans named name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for i, s := range r.spans {
		if s.Name == name {
			d += r.dur(i)
		}
	}
	return d
}

// medianMS is the median duration of the spans named name, in ms.
func (r *recorder) medianMS(name string) float64 {
	var xs []float64
	for i, s := range r.spans {
		if s.Name == name {
			xs = append(xs, ms(r.dur(i)))
		}
	}
	return quantile(xs, 0.5)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ledgerRows are the layers a traced job's time is split across; the
// job's remaining self time is the ledger's other row.
var ledgerRows = []struct{ span, metric string }{
	{"fmindex.seed", "ledger.fmindex_ms"},
	{"align.extend", "ledger.align_ms"},
	{"accel.new", "ledger.accel_new_ms"},
	{"accel.loop", "ledger.accel_loop_ms"},
	{"accel.drain", "ledger.accel_drain_ms"},
	{"accel.sharded", "ledger.accel_sharded_ms"},
}

// counts are the work counted at the same boundaries as the spans.
type counts struct {
	seededReads, seedHits, occ, sa int // fmindex.seed
	extHits, rows                  int // align.extend
	alignedReads                   int // pipeline.align
	loopHits, loopCycles           int64
	loopMallocs                    uint64 // accel.loop
}

// traced is the traced run. Each round runs one untraced iteration,
// then the same iteration traced, then the probes. A traced live job
// is split in two: the benchmark calls SeedAndChain on each read and
// ExtendHitCost on each hit itself, then replays the job over its
// part's Memo, which holds the results of exactly those calls. Returns
// the per-layer metrics.
func (b *bench) traced(t *tally, st setupTimes, deadline time.Time) ([]metric, []span) {
	rec := &recorder{t0: time.Now()}
	var c counts
	memoBuild := st.memo + b.ensureMemo()
	if b.w.replay {
		// The sweep's jobs do no functional work: seeding and extension
		// are measured once, outside any job.
		root := rec.begin("probe", -1)
		b.functional(rec, root, b.e.parts[0], &c)
		rec.end(root)
	}

	var untraced, traced []float64
	var ckptBytes int
	for i := 0; i < b.sc.minIters || time.Now().Before(deadline); i++ {
		untraced = append(untraced, ms(b.iterate(t)))
		traced = append(traced, ms(b.tracedIterate(t, rec, &c)))
		ckptBytes = b.probe(t, rec, &c, i)
	}
	b.siblingChecks(t)

	m := []metric{
		{name: "genome.generate_ms", value: ms(st.generate), unit: "ms"},
		{name: "genome.simulate_ms", value: ms(st.simulate), unit: "ms"},
		{name: "fmindex.build_ms", value: ms(st.index), unit: "ms"},
		{name: "accel.derive_ms", value: ms(st.derive), unit: "ms"},
		{name: "accel.memo_build_ms", value: ms(memoBuild), unit: "ms"},
		{name: "pipeline.truth_ms", value: ms(st.truth), unit: "ms"},
	}
	seed := rec.total("fmindex.seed")
	ext := rec.total("align.extend")
	aln := rec.total("pipeline.align")
	loop := rec.total("accel.loop")
	m = append(m,
		metric{name: "pipeline.align_us_per_read", value: us(aln) / float64(c.alignedReads), unit: "us"},
		metric{name: "fmindex.seed_us_per_read", value: us(seed) / float64(c.seededReads), unit: "us"},
		metric{name: "fmindex.occ_accesses_per_read", value: float64(c.occ) / float64(c.seededReads), unit: "count"},
		metric{name: "fmindex.sa_lookups_per_read", value: float64(c.sa) / float64(c.seededReads), unit: "count"},
		metric{name: "fmindex.hits_per_read", value: float64(c.seedHits) / float64(c.seededReads), unit: "count"},
		metric{name: "align.extend_us_per_hit", value: us(ext) / float64(c.extHits), unit: "us"},
		metric{name: "align.rows_per_hit", value: float64(c.rows) / float64(c.extHits), unit: "count"},
		metric{name: "accel.new_ms", value: rec.medianMS("accel.new"), unit: "ms"},
		metric{name: "accel.loop_ns_per_hit", value: float64(loop.Nanoseconds()) / float64(c.loopHits), unit: "ns"},
		metric{name: "accel.loop_ns_per_kcycle", value: float64(loop.Nanoseconds()) / (float64(c.loopCycles) / 1000), unit: "ns"},
		metric{name: "accel.drain_ms", value: rec.medianMS("accel.drain"), unit: "ms"},
		metric{name: "accel.allocs_per_hit", value: float64(c.loopMallocs) / float64(c.loopHits), unit: "count"},
		metric{name: "accel.estimate_ms", value: rec.medianMS("accel.estimate"), unit: "ms"},
		metric{name: "accel.plan_us", value: 1000 * rec.medianMS("accel.plan"), unit: "us"},
		metric{name: "accel.merge_us", value: 1000 * rec.medianMS("accel.merge"), unit: "us"},
		metric{name: "ckpt.snapshot_us", value: 1000 * rec.medianMS("ckpt.snapshot"), unit: "us"},
		metric{name: "ckpt.encode_us", value: 1000 * rec.medianMS("ckpt.encode"), unit: "us"},
		metric{name: "ckpt.bytes_per_snapshot", value: float64(ckptBytes), unit: "B"},
		metric{name: "ckpt.restore_ms", value: rec.medianMS("ckpt.restore"), unit: "ms"},
	)
	base := rec.medianMS("obs.nil")
	for _, mode := range []string{"invariants", "metrics", "trace"} {
		m = append(m, metric{name: "obs." + mode + "_overhead_pct", value: 100 * (rec.medianMS("obs."+mode)/base - 1), unit: "%"})
	}
	jobs := float64(len(t.allJobMS()))
	m = append(m,
		metric{name: "runtime.gc_cycles", value: float64(t.gcCycles) / jobs, unit: "count"},
		metric{name: "runtime.gc_pause_ms", value: float64(t.gcPause) / 1e6 / jobs, unit: "ms"},
	)
	m = append(m, ledger(rec)...)
	u := quantile(untraced, 0.5)
	m = append(m, metric{name: "bench.trace_overhead_pct", value: 100 * (quantile(traced, 0.5) - u) / u, unit: "%", n: len(traced)})
	return m, rec.spans
}

// ledger splits the mean traced job into its layer rows plus other,
// the job's self time; the rows sum to ledger.job_ms exactly.
func ledger(rec *recorder) []metric {
	var jobTime time.Duration
	jobs := 0
	byName := map[string]time.Duration{}
	for i, s := range rec.spans {
		switch {
		case s.Parent < 0 && s.Name == "job":
			jobTime += rec.dur(i)
			jobs++
		case s.Parent >= 0 && rec.spans[s.Parent].Name == "job":
			byName[s.Name] += rec.dur(i)
		}
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(jobs) }
	out := []metric{{name: "ledger.job_ms", value: per(jobTime), unit: "ms", n: jobs}}
	other := jobTime
	for _, row := range ledgerRows {
		out = append(out, metric{name: row.metric, value: per(byName[row.span]), unit: "ms"})
		other -= byName[row.span]
	}
	return append(out, metric{name: "ledger.other_ms", value: per(other), unit: "ms"})
}

// tracedIterate runs every job once with spans around the calls into
// each layer and returns the iteration's traced host time. Each
// Report must equal the untraced first iteration's byte for byte.
func (b *bench) tracedIterate(t *tally, rec *recorder, c *counts) time.Duration {
	if t.firstDigests == nil {
		for _, r := range t.first {
			t.firstDigests = append(t.firstDigests, digest(r))
		}
	}
	var total time.Duration
	reps := make([]*accel.Report, len(b.jobs))
	for i, j := range b.jobs {
		root := rec.begin("job", -1)
		var rep *accel.Report
		var err error
		switch {
		case j.sharded:
			s := rec.begin("accel.sharded", root)
			rep, err = runJob(b.e.Aligner, j, b.workers)
			rec.end(s)
		case b.w.replay:
			rep, err = b.tracedReplay(rec, root, j, c)
		default:
			b.functional(rec, root, j.p, c)
			j.opts.Memo = j.p.memo
			rep, err = b.tracedReplay(rec, root, j, c)
		}
		rec.end(root)
		total += rec.dur(root)
		if err == nil && digest(rep) != t.firstDigests[i] {
			err = fmt.Errorf("traced Report differs from the untraced job's")
		}
		reps[i] = rep
		b.check(t, j, rep, err, reps)
	}
	return total
}

// functional seeds every read of p, then extends every hit, through
// the aligner: the functional work a live job's SUs and EUs do.
func (b *bench) functional(rec *recorder, parent int, p *part, c *counts) {
	reads := p.reads
	hits := make([][]core.Hit, len(reads))
	s := rec.begin("fmindex.seed", parent)
	for i, r := range reads {
		h, st := b.e.Aligner.SeedAndChain(i, r)
		hits[i] = h
		c.occ += st.OccAccesses
		c.sa += st.SALookups
		c.seedHits += len(h)
	}
	rec.end(s)
	c.seededReads += len(reads)

	s = rec.begin("align.extend", parent)
	for i, r := range reads {
		var rc seq.Seq
		for _, h := range hits[i] {
			oriented := r
			if h.Rev {
				if rc == nil {
					rc = r.RevComp()
				}
				oriented = rc
			}
			_, cost := b.e.Aligner.ExtendHitCost(oriented, h)
			c.rows += cost.LeftRows + cost.RightRows
		}
		c.extHits += len(hits[i])
	}
	rec.end(s)
}

// tracedReplay runs one unsharded job through New, Feed + Step, and
// DrainChecked, each in its own span.
func (b *bench) tracedReplay(rec *recorder, parent int, j job, c *counts) (*accel.Report, error) {
	o := j.opts
	var ob *obs.Observer
	if j.observe {
		ob = &obs.Observer{Metrics: obs.NewRegistry(), Inv: obs.NewInvariants()}
		o.Obs = ob
	}
	s := rec.begin("accel.new", parent)
	sys, err := accel.New(b.e.Aligner, o)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s = rec.begin("accel.loop", parent)
	sys.Feed(j.p.reads)
	_, err = sys.StepUntil(forever)
	rec.end(s)
	runtime.ReadMemStats(&ms1)
	c.loopMallocs += ms1.Mallocs - ms0.Mallocs
	if err != nil {
		return nil, err
	}
	s = rec.begin("accel.drain", parent)
	rep, err := sys.DrainChecked()
	rec.end(s)
	if err == nil && ob != nil {
		err = ob.Inv.Err()
	}
	if rep != nil {
		c.loopHits += int64(rep.TotalHits)
		c.loopCycles += rep.Cycles
	}
	return rep, err
}

// probe measures, once per round, the layers no job's ledger row
// isolates: the NvWa replay job under each observer mode, a checkpoint
// round trip, the balanced planner's estimate and plan, the shard
// merge, and the software aligner. Returns the checkpoint's size.
func (b *bench) probe(t *tally, rec *recorder, c *counts, round int) int {
	root := rec.begin("probe", -1)
	defer rec.end(root)
	nv := nvwaJob(b.w)
	j := b.replay()

	modes := []struct {
		name string
		new  func() *obs.Observer
	}{
		{"obs.nil", func() *obs.Observer { return nil }},
		{"obs.invariants", obs.NewInvariantsOnly},
		{"obs.metrics", func() *obs.Observer { return &obs.Observer{Metrics: obs.NewRegistry(), Inv: obs.NewInvariants()} }},
		{"obs.trace", obs.New},
	}
	for k := range modes {
		mode := modes[(k+round)%len(modes)] // rotate, so no mode always runs first
		o := j.opts
		o.Obs = mode.new()
		s := rec.begin(mode.name, root)
		sys, err := accel.New(b.e.Aligner, o)
		var rep *accel.Report
		if err == nil {
			rep, err = sys.RunChecked(j.p.reads)
		}
		rec.end(s)
		if err == nil && o.Obs != nil {
			err = o.Obs.Inv.Err()
		}
		if err == nil && digest(rep) != t.firstDigests[nv] {
			err = fmt.Errorf("Report differs from the unobserved job's")
		}
		if err != nil {
			t.failCheck("%s: %v", mode.name, err)
		}
	}

	size, err := b.resume(rec, root, t.first[nv].Cycles/2, t.firstDigests[nv])
	if err != nil {
		t.failCheck("checkpoint probe: %v", err)
	}

	s := rec.begin("accel.estimate", root)
	costs := accel.EstimateReadCosts(b.e.Aligner, j.p.reads, b.workers)
	rec.end(s)
	s = rec.begin("accel.plan", root)
	parts, _ := accel.PlanBalanced(costs, shards)
	rec.end(s)
	ss, err := accel.NewSharded(b.e.Aligner, accel.ShardedOptions{Options: j.opts, Shards: shards, Policy: accel.ShardBalanced, Workers: b.workers})
	var merged *accel.Report
	var shardReps []*accel.Report
	if err == nil {
		merged, shardReps, err = ss.RunDetailed(j.p.reads)
	}
	if err == nil {
		s = rec.begin("accel.merge", root)
		acc := accel.NewMergeAcc()
		for _, r := range shardReps {
			acc.Add(r)
		}
		m := acc.Merged(j.opts.Config.ClockGHz)
		rec.end(s)
		switch {
		case len(parts) != shards:
			err = fmt.Errorf("PlanBalanced returned %d parts, want %d", len(parts), shards)
		case m.Cycles != merged.Cycles || m.TotalHits != merged.TotalHits:
			err = fmt.Errorf("MergeAcc disagrees with the sharded run's merge")
		case !sameResults(merged, t.first[nv]):
			err = fmt.Errorf("sharded Results differ from the unsharded NvWa job's")
		}
	}
	if err != nil {
		t.failCheck("shard probe: %v", err)
	}

	s = rec.begin("pipeline.align", root)
	k, _ := b.swPass(t)
	rec.end(s)
	c.alignedReads += b.blocks[k].hi - b.blocks[k].lo
	return size
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
