package accel

import (
	"sync"

	"nvwa/internal/core"
	"nvwa/internal/fmindex"
	"nvwa/internal/par"
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
// never on the hardware configuration being simulated or the faults
// injected into it: every Fig. 11 ablation, Fig. 13 sweep point,
// front-end row and chaos schedule would refill the
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
// diverge. A fault plan changes when and where records are charged,
// never what they hold, so the same holds under faults. The golden
// tests in internal/experiments and the faulted-replay tests here
// enforce this end to end.
//
// A System binds a Memo once, when it is fed (see serves): either the
// Memo holds every record of the run, or the run fills every record
// live. After BuildMemo returns, a Memo is immutable and safe for
// unsynchronised concurrent use; KeyedToResume returns a keyed copy.
type Memo struct {
	front su.Seeding        // the front end the cache was built over
	ext   *pipeline.Aligner // the extension engine the cache was built over
	reads []seq.Seq
	per   []memoRead
	// resumeHash keys the cache to a checkpoint-resume identity
	// (ckpt.Checkpoint.Hash; 0 = fresh run). Restore gives the System
	// it rebuilds a nonzero identity, so a memo warmed for a fresh run
	// can never alias into a resumed one (or vice versa) — the replayed
	// prefix must refill through the same path the original took.
	resumeHash uint64
	// shards caches the balanced policy's read-cost estimates and the
	// derived per-shard views, keyed on (policy, shard count, resume
	// key). Behind a pointer so Memo stays shallow-copyable.
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
	pol        ShardPolicy
	s          int
	resumeHash uint64
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
	par.For(len(reads), workers, func(i int) {
		m.per[i] = fillRead(m.front, m.ext, i, reads[i])
	})
	return m
}

// KeyedToResume returns a copy of the memo keyed to a checkpoint-resume
// hash, so a resumed run can deliberately reuse a warmed cache:
// memo.KeyedToResume(ck.Hash()). The receiver is left as it was, so a
// shared memo keeps serving fresh runs; the copy shares its records and
// caches.
func (m *Memo) KeyedToResume(resumeHash uint64) *Memo {
	if m == nil {
		return nil
	}
	k := *m
	k.resumeHash = resumeHash
	return &k
}

// serves reports whether the memo stands in for every record of a run
// over the given front end, resume identity (0 = fresh run) and reads:
// it was built over that front end, is keyed to that identity, and
// holds exactly those reads. It is the one replay decision, made by
// Feed; a memo that does not serve a run is not consulted at all.
func (m *Memo) serves(front su.Seeding, resumeHash uint64, reads []seq.Seq) bool {
	return m != nil && m.front == front && m.resumeHash == resumeHash && m.holds(reads)
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
// (PlanBalanced), not index-derived; the partition is not part of the
// cache key, which is sound because every policy's partition —
// balanced included — is a pure function of (workload, pol, s) and the
// memo is pinned to one workload. Views share the parent's immutable
// per-read payloads (hits are copied for the remap; stats and
// extension records, which carry no ReadIdx, alias the parent) and are
// memoized per (pol, s, resume key), so repeated sharded runs over one
// memo pay the derivation once. The returned views carry the
// receiver's resume key; a KeyedToResume copy shares the cache with
// its original, so the key is part of the cache key.
//
// Concurrency: safe for concurrent use after BuildMemo, like every
// other Memo method. nil for s <= 1 or a memo not built by BuildMemo.
func (m *Memo) ShardViews(pol ShardPolicy, s int, parts [][]int) []*Memo {
	if m == nil || m.shards == nil || s <= 1 || len(parts) != s {
		return nil
	}
	m.shards.mu.Lock()
	defer m.shards.mu.Unlock()
	key := shardViewKey{pol: pol, s: s, resumeHash: m.resumeHash}
	if v, ok := m.shards.views[key]; ok {
		return v
	}
	views := make([]*Memo, s)
	for i, part := range parts {
		v := &Memo{
			front: m.front, ext: m.ext, resumeHash: m.resumeHash,
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
