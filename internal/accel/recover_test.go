package accel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nvwa/internal/ckpt"
	"nvwa/internal/fault"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
	"nvwa/internal/sim"
)

// stripRecovery marshals a Report with the Recovery ledger cleared, so
// crashed-and-recovered runs can be compared byte-for-byte against
// crash-free baselines (which carry no ledger at all).
func stripRecovery(t *testing.T, r *Report) []byte {
	t.Helper()
	c := *r
	c.Recovery = nil
	return reportBytes(t, &c)
}

func crashPlan(extra *fault.Plan, crashes ...fault.Event) *fault.Plan {
	p := &fault.Plan{}
	if extra != nil {
		p.Events = append(p.Events, extra.Events...)
	}
	p.Events = append(p.Events, crashes...)
	return p
}

func runSharded(t *testing.T, a *pipeline.Aligner, o ShardedOptions, reads []seq.Seq) *Report {
	t.Helper()
	ss, err := NewSharded(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ss.RunChecked(reads)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The recovery contract: killing shards mid-run and restarting them
// from periodic checkpoints leaves the merged Report identical to the
// crash-free run — across partition policies, checkpoint intervals
// (including none, i.e. restart from scratch), and an injectable
// fault plan riding along.
func TestCrashRecoveryMergedReportIdentical(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 160, 61)
	injectable := fault.Spec{
		Seed: 7, Horizon: 20000, SUStalls: 2, EUStalls: 3, EUFails: 1,
	}.Generate(4*16, 4*10)
	for _, pol := range []ShardPolicy{ShardContiguous, ShardInterleaved, ShardBalanced} {
		for _, every := range []int64{0, 2000, 10000} {
			for _, faulted := range []bool{false, true} {
				pol, every, faulted := pol, every, faulted
				name := fmt.Sprintf("%s/every=%d/faults=%v", pol, every, faulted)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var extra *fault.Plan
					if faulted {
						extra = injectable
					}
					base := ShardedOptions{
						Options: smallOpts(), Shards: 4, Policy: pol, Workers: 2,
					}
					base.Faults = extra
					want := stripRecovery(t, runSharded(t, a, base, reads))

					crashed := base
					crashed.CheckpointEvery = every
					crashed.Faults = crashPlan(extra,
						fault.Event{Kind: fault.ChipCrash, Cycle: 3000, Unit: 1},
						fault.Event{Kind: fault.ChipCrash, Cycle: 7000, Unit: 3},
						fault.Event{Kind: fault.ChipCrash, Cycle: 9000, Unit: 1},
					)
					rep := runSharded(t, a, crashed, reads)
					if got := stripRecovery(t, rep); string(got) != string(want) {
						t.Fatal("crashed-and-recovered merged Report diverges from crash-free run")
					}
					if rep.Recovery == nil {
						t.Fatal("no Recovery ledger on a crashed run")
					}
					if rep.Recovery.Crashes == 0 {
						t.Fatal("crashes not accounted")
					}
					if rep.Recovery.ReplayedCycles <= 0 {
						t.Fatalf("replayed cycles = %d, want > 0", rep.Recovery.ReplayedCycles)
					}
					if every > 0 {
						if rep.Recovery.Checkpoints == 0 || rep.Recovery.CheckpointBytes == 0 {
							t.Fatalf("checkpointing enabled but not accounted: %+v", rep.Recovery)
						}
						// Bounded replay: restarting from a checkpoint never
						// re-simulates more than (interval + span to the
						// crash) per crash — with the schedule above, far
						// less than restart-from-scratch.
						bound := int64(rep.Recovery.Crashes) * (every + 9000)
						if rep.Recovery.ReplayedCycles > bound {
							t.Fatalf("replayed %d cycles, bound %d", rep.Recovery.ReplayedCycles, bound)
						}
					}
				})
			}
		}
	}
}

// Checkpoint-interval granularity bounds replay: a finer interval
// must never replay more than a coarser one on the same crash
// schedule (it can only restore from a closer checkpoint).
func TestCheckpointIntervalBoundsReplay(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 29)
	replayAt := func(every int64) int64 {
		o := ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardContiguous, Workers: 1, CheckpointEvery: every}
		o.Faults = crashPlan(nil,
			fault.Event{Kind: fault.ChipCrash, Cycle: 8000, Unit: 0},
			fault.Event{Kind: fault.ChipCrash, Cycle: 8000, Unit: 1},
		)
		rep := runSharded(t, a, o, reads)
		if rep.Recovery == nil {
			t.Fatalf("every=%d: no recovery ledger", every)
		}
		return rep.Recovery.ReplayedCycles
	}
	fine, coarse, scratch := replayAt(1000), replayAt(4000), replayAt(0)
	if fine > coarse {
		t.Errorf("finer interval replays more: every=1000 → %d, every=4000 → %d", fine, coarse)
	}
	if coarse > scratch {
		t.Errorf("checkpointing replays more than restart-from-scratch: %d > %d", coarse, scratch)
	}
}

// A crash landing after a shard has quiesced expires: nothing is
// killed, nothing replayed, and the Report (minus the empty ledger)
// matches the crash-free run.
func TestCrashAfterQuiescenceExpires(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 40, 17)
	base := ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardContiguous, Workers: 1}
	ref := runSharded(t, a, base, reads)
	want := stripRecovery(t, ref)

	late := base
	late.Faults = crashPlan(nil, fault.Event{Kind: fault.ChipCrash, Cycle: ref.Cycles * 10, Unit: 0})
	rep := runSharded(t, a, late, reads)
	if got := stripRecovery(t, rep); string(got) != string(want) {
		t.Fatal("expired crash perturbed the Report")
	}
	if rep.Recovery != nil && rep.Recovery.Crashes != 0 {
		t.Fatalf("expired crash was counted: %+v", rep.Recovery)
	}
}

// Single-chip (Shards=1) recovery works through the same layer: a
// crash on shard 0 recovers to the byte-identical unsharded Report.
func TestSingleChipCrashRecovery(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 60, 83)
	sys, err := New(a, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, sys.Run(reads))

	o := ShardedOptions{Options: smallOpts(), Shards: 1, Policy: ShardContiguous, CheckpointEvery: 2500}
	o.Faults = crashPlan(nil, fault.Event{Kind: fault.ChipCrash, Cycle: 6000, Unit: 0})
	rep := runSharded(t, a, o, reads)
	if got := stripRecovery(t, rep); string(got) != string(want) {
		t.Fatal("single-chip recovered Report diverges from plain run")
	}
	if rep.Recovery == nil || rep.Recovery.Crashes != 1 {
		t.Fatalf("recovery ledger = %+v, want 1 crash", rep.Recovery)
	}
}

var (
	benchOnce    sync.Once
	benchAligner *pipeline.Aligner
	benchReads   []seq.Seq
)

func benchWorkload() (*pipeline.Aligner, []seq.Seq) {
	benchOnce.Do(func() {
		ref := genome.Generate(genome.HumanLike(), 80000, 5)
		benchAligner = pipeline.New(ref.Seq, pipeline.DefaultOptions())
		for _, r := range genome.Simulate(ref, 1200, genome.ShortReadConfig(6)) {
			benchReads = append(benchReads, r.Seq)
		}
	})
	return benchAligner, benchReads
}

// BenchmarkCheckpoint quantifies the preemption tax on the full-size
// system (1,200 reads on an 80 kbp reference): an
// uninterrupted run versus the incremental Step loop snapshotting
// in memory every 10k cycles — the sharded crash-recovery
// configuration. The EXPERIMENTS.md overhead note cites this pair.
func BenchmarkCheckpoint(b *testing.B) {
	a, reads := benchWorkload()
	b.Run("uninterrupted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := New(a, NvWaOptions())
			if err != nil {
				b.Fatal(err)
			}
			sys.Run(reads)
		}
	})
	b.Run("snapshot-every-10k", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int64
		for i := 0; i < b.N; i++ {
			sys, err := New(a, NvWaOptions())
			if err != nil {
				b.Fatal(err)
			}
			sys.Feed(reads)
			for boundary := int64(10_000); ; boundary += 10_000 {
				done, err := sys.StepUntil(boundary)
				if err != nil {
					b.Fatal(err)
				}
				if done {
					break
				}
				ck, err := sys.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(ck.Encode()))
			}
			if _, err := sys.DrainChecked(); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(bytes / int64(b.N)) // checkpoint traffic per run
	})
}

// NewSharded validates the crash schedule against the topology.
func TestNewShardedRejectsBadCrashSchedules(t *testing.T) {
	t.Parallel()
	a, _ := testWorkload(t, 1, 3)
	mk := func(p *fault.Plan) error {
		_, err := NewSharded(a, ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardContiguous})
		if err != nil {
			t.Fatal(err)
		}
		o := ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardContiguous}
		o.Faults = p
		_, err = NewSharded(a, o)
		return err
	}
	if err := mk(crashPlan(nil, fault.Event{Kind: fault.ChipCrash, Cycle: 100, Unit: 5})); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := mk(crashPlan(nil, fault.Event{Kind: fault.ChipCrash, Cycle: 0, Unit: 0})); err == nil {
		t.Error("cycle-0 crash accepted")
	}
	err := mk(crashPlan(nil,
		fault.Event{Kind: fault.ChipCrash, Cycle: 100, Unit: 1},
		fault.Event{Kind: fault.ChipCrash, Cycle: 100, Unit: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate crash: err = %v", err)
	}
	// And the unsharded System refuses to inject them at all.
	badOpts := smallOpts()
	badOpts.Faults = crashPlan(nil, fault.Event{Kind: fault.ChipCrash, Cycle: 100, Unit: 0})
	if _, err := New(a, badOpts); err == nil {
		t.Error("System.New accepted a chip-crash plan")
	}
}

// An uncheckpointed, crash-free sharded run whose watchdog trips hands
// OnAbort one checkpoint per tripped shard, stamped with that shard's
// index, and each restores over its shard's reads to finish exactly as
// the shard does without a watchdog.
func TestShardedAbortCheckpointsStampShard(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 80, 23)
	base := ShardedOptions{Options: smallOpts(), Shards: 2, Policy: ShardContiguous, Workers: 2}
	ss, err := NewSharded(a, base)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ss.RunDetailed(reads)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := map[int32]*ckpt.Checkpoint{}
	tight := base
	tight.Watchdog = &sim.Watchdog{MaxCycles: 3000}
	tight.OnAbort = func(ck *ckpt.Checkpoint) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[ck.Shard]; dup {
			t.Errorf("two abort checkpoints stamped shard %d", ck.Shard)
		}
		got[ck.Shard] = ck
	}
	ss, err = NewSharded(a, tight)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.RunChecked(reads); err == nil {
		t.Fatal("a 3000-cycle budget did not trip")
	}
	if len(got) != 2 || got[0] == nil || got[1] == nil {
		t.Fatalf("abort checkpoints stamped shards %v, want 0 and 1", shardKeys(got))
	}
	for i, part := range PartitionReads(len(reads), 2, ShardContiguous) {
		r, err := Restore(a, smallOpts(), reads[part[0]:part[len(part)-1]+1], got[int32(i)])
		if err != nil {
			t.Fatalf("shard %d: Restore: %v", i, err)
		}
		if r.shard != i {
			t.Errorf("shard %d: restored system stamps shard %d", i, r.shard)
		}
		if string(reportBytes(t, finishFrom(t, r))) != string(reportBytes(t, want[i])) {
			t.Errorf("shard %d: resumed abort checkpoint diverges from the shard's run", i)
		}
	}
}

func shardKeys(m map[int32]*ckpt.Checkpoint) []int32 {
	var ks []int32
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
