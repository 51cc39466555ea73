package accel

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"nvwa/internal/ckpt"
	"nvwa/internal/core"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// Snapshot captures the system at its current synchronization point
// (between fired events). The event heap holds task structs whose
// payloads point at live units, so state cannot be byte-serialized
// directly; instead the checkpoint records the engine position
// (cycle, fired count, next seq) and a canonical hash-guarded
// inventory of every component's scheduler state. Restore re-derives
// the live state by deterministic replay to the exact fired-event
// count and proves equivalence by re-snapshotting and byte-comparing
// against this inventory.
//
// Snapshot is valid at any point after Feed where the caller holds the
// event loop — between StepUntil slices or inside OnAbort — but not
// from inside an event body. Before Feed there is no workload to bind
// to, and Snapshot returns an error.
func (s *System) Snapshot() (*ckpt.Checkpoint, error) {
	if !s.fed() {
		return nil, errors.New("accel: Snapshot before Feed: a checkpoint binds to the fed read set")
	}
	var enc ckpt.Encoder
	s.encodeState(&enc)
	state := append([]byte(nil), enc.Bytes()...)
	return &ckpt.Checkpoint{
		Version:      ckpt.Version,
		Shard:        int32(s.shard),
		Cycle:        s.eng.Now(),
		Fired:        s.eng.Fired(),
		Seq:          s.eng.Seq(),
		WorkloadHash: s.workloadHash(),
		OptionsHash:  hashOptions(&s.opts),
		PlanHash:     s.opts.Faults.Hash(),
		State:        state,
		StateHash:    enc.Sum64(),
	}, nil
}

// workloadHash returns HashReads(s.reads), computed on the first
// snapshot and cached: the read set is fixed once fed. The attached
// Memo supplies its once-computed digest when it holds exactly the
// fed reads.
func (s *System) workloadHash() uint64 {
	if !s.wlHashOK {
		s.wlHash = s.opts.Memo.hashReads(s.reads)
		s.wlHashOK = true
	}
	return s.wlHash
}

// Restore rebuilds a system from a checkpoint by deterministic
// replay: it verifies the checkpoint binds to exactly this (aligner
// workload, options, fault plan), constructs a fresh System, feeds it
// the reads, runs to the checkpoint's fired count, and then checks
// the engine position and byte-compares the re-encoded state
// inventory. A successful Restore therefore guarantees the resumed
// run is byte-identical to the uninterrupted run — by construction,
// not by hope.
//
// The restored system carries the resume identity ck.Hash(), so Feed
// binds an attached Memo only if it was explicitly keyed to it
// (Memo.KeyedToResume); a fresh run's cache never aliases a resumed
// one.
func Restore(aligner *pipeline.Aligner, opts Options, reads []seq.Seq, ck *ckpt.Checkpoint) (*System, error) {
	if ck == nil {
		return nil, errors.New("accel: nil checkpoint")
	}
	if ck.Version != ckpt.Version {
		return nil, fmt.Errorf("accel: checkpoint version %d not supported (this build writes version %d)", ck.Version, ckpt.Version)
	}
	if got := hashOptions(&opts); got != ck.OptionsHash {
		return nil, fmt.Errorf("accel: checkpoint was taken under a different configuration (options hash %#x, this system %#x)", ck.OptionsHash, got)
	}
	if got := opts.Faults.Hash(); got != ck.PlanHash {
		return nil, fmt.Errorf("accel: checkpoint was taken under a different fault plan (plan hash %#x, this system %#x)", ck.PlanHash, got)
	}
	if got := opts.Memo.hashReads(reads); got != ck.WorkloadHash {
		return nil, fmt.Errorf("accel: checkpoint was taken over a different workload (reads hash %#x, given %#x)", ck.WorkloadHash, got)
	}
	s, err := New(aligner, opts)
	if err != nil {
		return nil, err
	}
	s.resumeHash = ck.Hash()
	s.shard = int(ck.Shard)
	s.Feed(reads)
	if err := s.stepToFired(ck.Fired); err != nil {
		return nil, err
	}
	if s.eng.Now() != ck.Cycle || s.eng.Seq() != ck.Seq {
		return nil, fmt.Errorf("accel: replay to %d fired events reached cycle %d, seq %d; checkpoint records cycle %d, seq %d: refusing to resume", ck.Fired, s.eng.Now(), s.eng.Seq(), ck.Cycle, ck.Seq)
	}
	var enc ckpt.Encoder
	s.encodeState(&enc)
	if !bytes.Equal(enc.Bytes(), ck.State) {
		return nil, fmt.Errorf("accel: replay diverged from checkpoint state (replayed digest %#x, recorded %#x): refusing to resume", enc.Sum64(), ck.StateHash)
	}
	return s, nil
}

// stepToFired replays the event schedule until exactly target events
// have fired. The watchdog runs with the system's persistent budget
// state, so a replayed prefix charges the same budgets the original
// run charged; the fired-count bound is checked before the watchdog,
// so replaying up to an abort checkpoint stops cleanly at the abort
// synchronization point without re-tripping.
func (s *System) stepToFired(target int64) error {
	if s.eng.Fired() > target {
		return fmt.Errorf("accel: checkpoint replay overshot: %d events fired, target %d", s.eng.Fired(), target)
	}
	if err := s.eng.RunBounded(-1, target, s.opts.Watchdog, &s.wdState); err != nil {
		s.wdErr = err
		return fmt.Errorf("accel: watchdog tripped during checkpoint replay (budget smaller than the original run's?): %w", err)
	}
	if s.eng.Fired() != target {
		return fmt.Errorf("accel: replay exhausted the event queue at %d fired events before reaching the checkpoint's %d: workload or configuration mismatch", s.eng.Fired(), target)
	}
	return nil
}

// encodeState writes the canonical state inventory: every component
// whose state influences future scheduling decisions, in a fixed
// order. Bulk arrays (per-read results, busy intervals, hit queues)
// are folded into FNV digests — a divergence is detected just as
// reliably, without the inventory dominating checkpoint size.
//
// Deliberately excluded: wdErr and wdState (replay stops before the
// check that tripped, so an abort checkpoint restores to a clean
// continuable state), the memo and the per-read records (functional,
// refilled by replay), and scratch buffers/freelists (contents dead
// between events).
func (s *System) encodeState(enc *ckpt.Encoder) {
	s.eng.EncodeState(enc)
	s.buffer.EncodeState(enc)

	enc.Section("accel.System")
	enc.PutInt(s.nextRead)
	enc.PutInt(s.idleSUs)
	enc.PutBool(s.roundActive)
	enc.PutInt(s.totalHits)
	enc.PutInt(len(s.blocked))
	for _, b := range s.blocked {
		enc.PutInt(b.u.ID())
		enc.PutI64(b.since)
		enc.PutInt(len(b.hits))
		var d ckpt.Digest
		for _, h := range b.hits {
			h.Fold(&d)
		}
		enc.PutU64(d.Sum())
	}
	enc.PutInt(len(s.results))
	var rd ckpt.Digest
	for _, r := range s.results {
		foldResult(&rd, r)
	}
	enc.PutU64(rd.Sum())
	var bd ckpt.Digest
	for _, v := range s.bestHit {
		bd.I64(int64(v))
	}
	enc.PutU64(bd.Sum())
	enc.PutInt(len(s.hitLens))
	var hd ckpt.Digest
	for _, v := range s.hitLens {
		hd.I64(int64(v))
	}
	enc.PutU64(hd.Sum())

	st := s.alloc.Stats()
	enc.Section("coordinator.AllocStats")
	enc.PutInt(st.Optimal)
	enc.PutInt(st.NearOptimal)
	var ad ckpt.Digest
	for _, v := range st.PerClassOptimal {
		ad.I64(int64(v))
	}
	for _, v := range st.PerClassTotal {
		ad.I64(int64(v))
	}
	enc.PutU64(ad.Sum())

	for _, u := range s.sus {
		u.EncodeState(enc)
	}
	for _, u := range s.eus {
		u.EncodeState(enc)
	}
	s.hbm.EncodeState(enc)
	s.prefet.EncodeState(enc)

	enc.PutBool(s.flt != nil)
	if s.flt != nil {
		s.flt.inj.EncodeState(enc)
		enc.Section("accel.faultState")
		enc.PutInt(s.flt.nextEv)
		enc.PutInt(s.flt.aliveEUs)
		var dd ckpt.Digest
		for _, b := range s.flt.deadEU {
			dd.I64(boolI64(b))
		}
		enc.PutU64(dd.Sum())
		enc.PutInt(len(s.flt.retryReads))
		var rr ckpt.Digest
		for _, v := range s.flt.retryReads {
			rr.I64(int64(v))
		}
		enc.PutU64(rr.Sum())
		enc.PutInt(s.flt.retryPending)
		enc.PutInt(s.flt.inFlight)
		keys := make([]core.Hit, 0, len(s.flt.attempts))
		for h := range s.flt.attempts {
			keys = append(keys, h)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].ReadIdx != keys[j].ReadIdx {
				return keys[i].ReadIdx < keys[j].ReadIdx
			}
			return keys[i].HitIdx < keys[j].HitIdx
		})
		enc.PutInt(len(keys))
		var at ckpt.Digest
		for _, h := range keys {
			h.Fold(&at)
			at.I64(int64(s.flt.attempts[h]))
		}
		enc.PutU64(at.Sum())
		var hh ckpt.Digest
		for _, b := range s.flt.hadHits {
			hh.I64(boolI64(b))
		}
		enc.PutU64(hh.Sum())
	}

	o := s.opts.Obs
	enc.PutBool(o != nil)
	if o != nil {
		l := o.Inv.Ledger()
		enc.Section("obs.Ledger")
		enc.PutI64(l.Pushed)
		enc.PutI64(l.Assigned)
		enc.PutI64(l.Dropped)
		enc.PutI64(l.Completed)
		enc.PutI64(l.Requeued)
		enc.PutI64(l.Retried)
		enc.PutI64(l.DeadLettered)
		enc.PutI64(l.Shed)
	}
}

func boolI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func foldResult(d *ckpt.Digest, r pipeline.Result) {
	d.I64(boolI64(r.Found))
	d.I64(int64(r.Score))
	d.I64(int64(r.RefBeg))
	d.I64(int64(r.RefEnd))
	d.I64(boolI64(r.Rev))
	d.I64(int64(r.Hits))
}

// hashOptions digests every Options field that shapes the event
// schedule. The Memo and the observation-side fields (Obs, Watchdog,
// OnAbort) are excluded: they never change scheduling (Reports are
// pinned byte-identical with or without them), so a checkpoint taken
// with observation on restores into a system with it off — and an
// abort checkpoint restores under a larger budget. Faults are bound
// separately, by the checkpoint's PlanHash.
func hashOptions(o *Options) uint64 {
	var d ckpt.Digest
	c := o.Config
	d.I64(int64(c.NumSUs))
	d.I64(int64(len(c.EUClasses)))
	for _, cl := range c.EUClasses {
		d.I64(int64(cl.PEs))
		d.I64(int64(cl.Count))
	}
	d.I64(int64(c.HitsBufferDepth))
	d.F64(c.ClockGHz)
	d.I64(int64(o.SeedStrategy))
	d.I64(int64(o.AllocStrategy))
	d.I64(boolI64(o.SerializeDRAM))
	// The Seeder's identity cannot be hashed (it is an interface), but
	// its presence changes the schedule; a resumed run must attach the
	// same front end, which the state byte-compare then proves.
	d.I64(boolI64(o.Seeder != nil))
	return d.Sum()
}

// HashReads digests a workload: read count, lengths, and bases. It
// binds checkpoints to the exact fed reads.
func HashReads(reads []seq.Seq) uint64 {
	var d ckpt.Digest
	d.I64(int64(len(reads)))
	for _, r := range reads {
		d.I64(int64(len(r)))
		for _, b := range r {
			d.U64(uint64(b))
		}
	}
	return d.Sum()
}
