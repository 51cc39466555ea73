package accel

import (
	"fmt"
	"math"

	"nvwa/internal/ckpt"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// runRecovered simulates one shard of a sharded run — every shard of
// an S >= 2 run goes through it, so the shard index stamps each
// checkpoint the shard takes, OnAbort's included. Under a chip-crash
// schedule with periodic checkpointing the system steps to each
// checkpoint boundary (every cycles apart; 0 disables) and snapshots;
// with neither it runs straight to quiescence. A crash at cycle c
// kills the shard just before c fires, and the shard restarts from
// its last checkpoint (or from scratch when none was taken yet) and
// re-simulates the lost span. Because Restore is proven
// byte-identical to the uninterrupted run, the recovered shard's
// Report equals the crash-free shard's — only the Recovery ledger
// (crash count, replayed cycles, checkpoint traffic) records that
// anything happened.
//
// Crashes apply to the main phase only: a shard that reaches
// quiescence before a crash cycle has already produced all results,
// so the remaining crashes expire. Every restart gets a fresh
// observer mirror of parentObs — the restored run re-derives the
// ledger by replay, so reusing the dead system's observer would
// double-count. The final system's observer is returned for the
// shard merge.
func runRecovered(aligner *pipeline.Aligner, so Options, parentObs *obs.Observer,
	shard int, reads []seq.Seq, crashes []int64, every int64) (*Report, *obs.Observer, error) {
	rec := &RecoveryStats{}
	build := func() (*System, error) {
		o := so
		o.Obs = obs.Mirror(parentObs)
		sys, err := New(aligner, o)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shard, err)
		}
		sys.shard = shard
		sys.Feed(reads)
		return sys, nil
	}
	sys, err := build()
	if err != nil {
		return nil, nil, err
	}

	var last *ckpt.Checkpoint // most recent periodic snapshot
	lastBoundary := int64(0)  // the boundary cycle it was taken at
	ckptAt := int64(-1)       // next boundary (-1: checkpointing off)
	if every > 0 {
		ckptAt = every
	}
	ci := 0
	for {
		crashAt := int64(-1)
		if ci < len(crashes) {
			crashAt = crashes[ci]
		}
		stop := int64(math.MaxInt64 >> 1) // run to quiescence
		atBoundary := false
		if ckptAt >= 0 && ckptAt < stop {
			stop = ckptAt
			atBoundary = true
		}
		crashing := false
		if crashAt >= 0 && crashAt-1 < stop {
			stop = crashAt - 1
			atBoundary = false
			crashing = true
		}
		done, runErr := sys.StepUntil(stop)
		if runErr != nil {
			break // watchdog abort, latched; finalize the partial report
		}
		if done {
			break // main phase quiesced; any crashes still pending expire
		}
		if crashing {
			// The shard dies here. Account the span that must be
			// re-simulated, then restart from the last checkpoint.
			rec.Crashes++
			base := int64(0)
			if last != nil {
				base = last.Cycle
			}
			rec.ReplayedCycles += sys.Now() - base
			ci++
			if last != nil {
				o := so
				o.Obs = obs.Mirror(parentObs)
				rs, err := Restore(aligner, o, reads, last)
				if err != nil {
					return nil, nil, fmt.Errorf("shard %d: recovery from crash at cycle %d: %w", shard, crashAt, err)
				}
				sys = rs // stamped with shard by the checkpoint it restored
			} else {
				sys, err = build()
				if err != nil {
					return nil, nil, err
				}
			}
			if every > 0 {
				ckptAt = lastBoundary + every
			}
			continue
		}
		if atBoundary {
			ck, err := sys.Snapshot()
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d: checkpoint at cycle %d: %w", shard, ckptAt, err)
			}
			rec.Checkpoints++
			rec.CheckpointBytes += int64(len(ck.Encode()))
			last = ck
			lastBoundary = ckptAt
			ckptAt += every
		}
	}
	rep, runErr := sys.DrainChecked()
	if rec.Crashes > 0 || rec.Checkpoints > 0 {
		rep.Recovery = rec
	}
	if runErr != nil {
		runErr = fmt.Errorf("shard %d: %w", shard, runErr)
	}
	return rep, sys.opts.Obs, runErr
}
