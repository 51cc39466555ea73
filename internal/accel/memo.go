package accel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nvwa/internal/core"
	"nvwa/internal/fmindex"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
	"nvwa/internal/su"
)

// Memo is a concurrency-safe replay cache of the accelerator's
// deterministic functional work: every read's record — the hits its SU
// emits, the index traffic the search cost, and one extension record
// per hit — computed ahead of time.
//
// The insight is that a read's record depends only on the workload,
// never on the hardware configuration being simulated: every Fig. 11
// ablation, Fig. 13 sweep point, and front-end row would refill the
// exact same SMEM searches and banded DP extensions inside its
// single-threaded event loop. A Memo fills them once per workload — in
// parallel across reads, through fillRead, the function a System runs
// per read at its seeding event — and then serves them to any number
// of concurrently running Systems, so each cycle-accurate event loop
// replays only the cost model.
//
// Determinism contract: a Memo-backed run produces a byte-identical
// Report to a direct run. The cached records are exactly what the
// System would have filled (same function, run once), and the cycle
// model consumes only those records, so the event schedule cannot
// diverge. The golden tests in internal/experiments enforce this end
// to end.
//
// After Build returns, a Memo is immutable and safe for unsynchronised
// concurrent use. Callers must not modify the returned slices.
type Memo struct {
	front su.Seeding        // the front end the cache was built over
	ext   *pipeline.Aligner // the extension engine the cache was built over
	reads []seq.Seq
	per   []memoRead
	// planHash keys the cache to the fault plan it was warmed for
	// (fault.Plan.Hash; 0 = fault-free). New consults it so a memo
	// warmed fault-free can never be replayed into a faulted
	// configuration — degraded runs must refill through the live
	// path rather than inherit fault-free results.
	planHash uint64
	// resumeHash keys the cache to a checkpoint-resume identity
	// (ckpt.Checkpoint.Hash; 0 = fresh run). A resumed System carries a
	// nonzero Options.ResumeHash, so a memo warmed for a fresh run can
	// never alias into a resumed one (or vice versa) — the replayed
	// prefix must refill through the same path the original took.
	resumeHash uint64
	// shards caches the balanced policy's read-cost estimates and the
	// derived per-shard views, keyed on (policy, shard count). Behind a
	// pointer so Memo stays shallow-copyable.
	shards *memoShardCache
	// wl is HashReads over reads, computed on first use; behind a
	// pointer so a shallow copy shares it.
	wl *memoHash
}

// memoHash is a workload digest computed at most once.
type memoHash struct {
	once sync.Once
	sum  uint64
}

// memoShardCache memoizes, across runs, the sharded planner's inputs
// that are pure functions of the memoized workload: the balanced
// policy's per-read cost estimates and the ShardViews results.
type memoShardCache struct {
	mu    sync.Mutex
	costs []float64 // EstimateReadCosts over the memo's reads; nil until first asked
	views map[shardViewKey][]*Memo
}

type shardViewKey struct {
	pol ShardPolicy
	s   int
}

// memoRead is one read's record, the Table III data of its whole
// lifetime: the hits its SU emits, the index traffic the search cost
// (the SU cycle model's input), and one extension record per hit, in
// hit order (the EU cycle model's input).
type memoRead struct {
	hits  []core.Hit
	stats fmindex.Stats
	exts  []pipeline.Extended
}

// fillRead computes read i's record: the seeding front end's hits and
// traffic, then every hit's extension in one ExtendAll call. It is the
// accelerator's one functional path, run per read by BuildMemo ahead of
// time and by a System at the read's seeding event otherwise.
func fillRead(front su.Seeding, ext *pipeline.Aligner, i int, read seq.Seq) memoRead {
	hits, st := front.SeedAndChain(i, read)
	return memoRead{hits: hits, stats: st, exts: ext.ExtendAll(read, hits, nil)}
}

// BuildMemo precomputes the records of the workload over the given
// seeding front end and extension engine, fanning the independent
// per-read work across workers goroutines (0 means GOMAXPROCS).
// front == nil means the extension engine also seeds (the default
// FM-index three-pass pipeline).
func BuildMemo(aligner *pipeline.Aligner, front su.Seeding, reads []seq.Seq, workers int) *Memo {
	var f su.Seeding = aligner
	if front != nil {
		f = front
	}
	m := &Memo{
		front: f, ext: aligner, reads: reads, per: make([]memoRead, len(reads)),
		shards: &memoShardCache{views: map[shardViewKey][]*Memo{}},
		wl:     &memoHash{},
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reads) {
		workers = len(reads)
	}
	if workers < 1 {
		workers = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(reads) {
					return
				}
				// Each index is owned by exactly one worker, so no
				// locking is needed.
				m.per[i] = fillRead(m.front, m.ext, i, reads[i])
			}
		}()
	}
	wg.Wait()
	return m
}

// Replays reports whether the memo was built over the given front end
// and can therefore replay its results. A System configured with a
// different Seeder must not consume this cache.
func (m *Memo) Replays(front su.Seeding) bool { return m != nil && m.front == front }

// CoversPlan reports whether the memo is keyed to the given fault-plan
// hash. A fresh BuildMemo is keyed fault-free (hash 0); a sharded
// system keys each shard's view to that shard's plan. The gate is
// deliberately conservative: even though the functional results are
// plan-invariant, a replay cache must never be a channel by which a
// faulted configuration inherits fault-free state it did not earn.
func (m *Memo) CoversPlan(planHash uint64) bool { return m != nil && m.planHash == planHash }

// CoversResume reports whether the memo is keyed to the given
// checkpoint-resume hash (Options.ResumeHash; 0 = fresh run). Same
// conservatism as CoversPlan: the functional results are
// resume-invariant, but a resumed run must never silently consume a
// cache warmed for a different execution identity.
func (m *Memo) CoversResume(resumeHash uint64) bool { return m != nil && m.resumeHash == resumeHash }

// KeyedToResume re-keys the memo to a checkpoint-resume hash and
// returns it, so a resumed run can deliberately reuse a warmed cache:
// memo.KeyedToResume(ck.Hash()).
func (m *Memo) KeyedToResume(resumeHash uint64) *Memo {
	if m != nil {
		m.resumeHash = resumeHash
	}
	return m
}

// Reads returns the workload the memo was built for.
func (m *Memo) Reads() []seq.Seq { return m.reads }

// record returns the cached record of read i, or nil for a nil memo or
// when the memo does not hold read i with exactly this sequence — a
// read outside the built workload, which the System fills itself. The
// record is shared by every System replaying the memo and must not be
// modified.
func (m *Memo) record(i int, read seq.Seq) *memoRead {
	if m != nil && i >= 0 && i < len(m.per) && m.reads[i].Equal(read) {
		return &m.per[i]
	}
	return nil
}

// holds reports whether the memo holds exactly these reads: the same
// count and equal sequences.
func (m *Memo) holds(reads []seq.Seq) bool {
	if m == nil || len(m.reads) != len(reads) {
		return false
	}
	for i, r := range reads {
		if !m.reads[i].Equal(r) {
			return false
		}
	}
	return true
}

// readCosts returns EstimateReadCosts(a, reads, workers), computed once
// per memo and shared by every later call. It answers only when the
// memo was built over the extension engine a and holds exactly these
// reads, because the estimates are a function of the workload and the
// aligner's index; otherwise it returns false and the caller probes
// itself. The returned slice is shared and must not be modified.
func (m *Memo) readCosts(a *pipeline.Aligner, reads []seq.Seq, workers int) ([]float64, bool) {
	if m == nil || m.shards == nil || m.ext != a || !m.holds(reads) {
		return nil, false
	}
	m.shards.mu.Lock()
	defer m.shards.mu.Unlock()
	if m.shards.costs == nil {
		m.shards.costs = EstimateReadCosts(a, reads, workers)
	}
	return m.shards.costs, true
}

// hashReads returns HashReads(reads). When the memo holds exactly
// these reads the digest is computed once per memo and shared by every
// later call; comparing the reads costs far less than hashing them.
func (m *Memo) hashReads(reads []seq.Seq) uint64 {
	if m == nil || m.wl == nil || !m.holds(reads) {
		return HashReads(reads)
	}
	m.wl.once.Do(func() { m.wl.sum = HashReads(m.reads) })
	return m.wl.sum
}

// ShardViews derives one replay cache per shard of the memoized
// workload under (pol, s): view i holds the reads of parts[i]
// re-indexed to the shard-local space, with every cached hit's ReadIdx
// remapped accordingly, so a shard System replays exactly as an
// unsharded System replays the full cache. The caller supplies the
// partition because the balanced policy's parts are cost-derived
// (PlanBalanced), not index-derived; memoization stays keyed on
// (pol, s) alone, which is sound because every policy's partition —
// balanced included — is a pure function of (workload, pol, s) and the
// memo is pinned to one workload. Views share the parent's immutable
// per-read payloads (hits are copied for the remap; stats and
// extension records, which carry no ReadIdx, alias the parent) and are
// memoized per (pol, s), so repeated sharded runs over one memo pay the
// derivation once. The returned views carry the parent's plan keying;
// callers re-key shallow copies per shard plan.
//
// Concurrency: safe for concurrent use after BuildMemo, like every
// other Memo method. nil for s <= 1 or a memo not built by BuildMemo.
func (m *Memo) ShardViews(pol ShardPolicy, s int, parts [][]int) []*Memo {
	if m == nil || m.shards == nil || s <= 1 || len(parts) != s {
		return nil
	}
	m.shards.mu.Lock()
	defer m.shards.mu.Unlock()
	key := shardViewKey{pol: pol, s: s}
	if v, ok := m.shards.views[key]; ok {
		return v
	}
	views := make([]*Memo, s)
	for i, part := range parts {
		v := &Memo{
			front: m.front, ext: m.ext, planHash: m.planHash, resumeHash: m.resumeHash,
			reads: make([]seq.Seq, len(part)),
			per:   make([]memoRead, len(part)),
			wl:    &memoHash{},
		}
		for li, gi := range part {
			v.reads[li] = m.reads[gi]
			pr := m.per[gi]
			lr := memoRead{stats: pr.stats, exts: pr.exts}
			lr.hits = make([]core.Hit, len(pr.hits))
			for k, h := range pr.hits {
				h.ReadIdx = li
				lr.hits[k] = h
			}
			v.per[li] = lr
		}
		views[i] = v
	}
	m.shards.views[key] = views
	return views
}
