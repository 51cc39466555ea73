package obs

import "fmt"

// Shard-merge support: a sharded accelerator runs S independent
// single-threaded event loops, each with its own Observer (one per
// shard, per the "one Registry / Trace / Invariants per event loop"
// rule), and reduces them into the parent Observer after all shards
// drain. Every merge operation here is either commutative (counter
// sums, ledger sums) or writes shard-distinct keys (prefixed gauges,
// series, trace pids), so the merged result is independent of both
// worker count and merge order; Snapshot's sorted serialization then
// makes it byte-stable.

// Mirror returns a fresh Observer with the same facilities enabled as
// parent — the per-shard observer for one shard's event loop. A nil
// parent mirrors to nil (unobserved shards stay zero-overhead).
func Mirror(parent *Observer) *Observer {
	if parent == nil {
		return nil
	}
	m := &Observer{}
	if parent.Metrics != nil {
		m.Metrics = NewRegistry()
	}
	if parent.Trace != nil {
		m.Trace = NewTrace()
	}
	if parent.Inv != nil {
		m.Inv = NewInvariants()
	}
	return m
}

// Absorb folds one shard's registry into r. Counters sum into the same
// names (exact, order-independent); histograms with matching bounds
// merge bucket-wise; gauges and series — whose values are per-chip
// observations, not global sums — are kept under a "shard<N>." prefix
// so no per-shard signal is lost and nothing is averaged dishonestly.
// A nil r or part is a no-op.
func (r *Registry) Absorb(part *Registry, shard int) {
	if r == nil || part == nil {
		return
	}
	for name, c := range part.counters {
		r.Counter(name).Add(c.Value())
	}
	prefix := fmt.Sprintf("shard%d.", shard)
	for name, g := range part.gauges {
		if g.set {
			r.Gauge(prefix + name).Set(g.v)
		}
	}
	for name, h := range part.histograms {
		dst := r.Histogram(name, h.bounds)
		if len(dst.bounds) == len(h.bounds) {
			ok := true
			for i := range dst.bounds {
				if dst.bounds[i] != h.bounds[i] {
					ok = false
					break
				}
			}
			if ok {
				for i, c := range h.counts {
					dst.counts[i] += c
				}
				dst.sum += h.sum
				dst.n += h.n
				continue
			}
		}
		// Bound mismatch: keep the shard's histogram under its prefix
		// rather than merging incompatible bucketings.
		pr := r.Histogram(prefix+name, h.bounds)
		for i, c := range h.counts {
			pr.counts[i] += c
		}
		pr.sum += h.sum
		pr.n += h.n
	}
	for name, s := range part.series {
		dst := r.Series(prefix + name)
		dst.points = append(dst.points, s.points...)
	}
}

// PidShardStride is the trace pid block reserved per shard: shard i's
// component pids map to base + (i+1)*PidShardStride, leaving the
// parent's own base pids (1..4) untouched.
const PidShardStride = 8

// Absorb appends one shard's trace into t with every pid offset into
// the shard's pid block and process names tagged "shard N: ...", so a
// merged timeline shows S chips side by side. Events keep their
// simulated timestamps (all shards share cycle 0), making the merged
// trace a true parallel timeline. A nil t or part is a no-op.
func (t *Trace) Absorb(part *Trace, shard int) {
	if t == nil || part == nil {
		return
	}
	off := (shard + 1) * PidShardStride
	for _, ev := range part.events {
		ev.Pid += off
		if ev.Ph == "M" && ev.Name == "process_name" {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				args[k] = v
			}
			if n, ok := args["name"].(string); ok {
				args["name"] = fmt.Sprintf("shard %d: %s", shard, n)
			}
			ev.Args = args
		}
		t.events = append(t.events, ev)
	}
	for key := range part.named {
		t.named[[2]int{key[0] + off, key[1]}] = true
	}
}

// AbsorbShard folds one shard's invariant state into v: ledger counts
// sum, shard violations carry over with a "shard N:" prefix, the check
// count accumulates, and the merged clock is the max across shards.
func (v *Invariants) AbsorbShard(part *Invariants, shard int) {
	if v == nil || part == nil {
		return
	}
	v.ledger.add(part.ledger)
	v.checked += part.checked
	if part.lastNow > v.lastNow {
		v.lastNow = part.lastNow
	}
	for _, msg := range part.violations {
		v.violate("shard %d: %s", shard, msg)
	}
}

// CheckShardConservation closes the cross-shard conservation equation
// after a merge: the merged ledger must equal the component-wise sum of
// the per-shard ledgers (Σ shard ledgers == merged ledger), every hit
// produced must be accounted (Σ pushed + Σ shed == totalHits), the
// classic conservation equation must hold on the sums (Σ assigned +
// Σ dropped == Σ pushed at drain), and the degraded-mode retry ledger
// must be terminal (Σ requeued == Σ retried + Σ deadLettered). Callers
// skip this when any shard aborted on its watchdog — an aborted shard
// legitimately strands hits.
func (v *Invariants) CheckShardConservation(totalHits int64, parts []Ledger) {
	if v == nil {
		return
	}
	v.checked++
	var sum Ledger
	for _, l := range parts {
		sum.add(l)
	}
	if got := v.ledger; got != sum {
		v.violate("shard merge: merged ledger %+v != Σ shard ledgers %+v", got, sum)
	}
	if sum.Pushed+sum.Shed != totalHits {
		v.violate("shard merge: Σ pushed %d + Σ shed %d != total hits %d",
			sum.Pushed, sum.Shed, totalHits)
	}
	if sum.Assigned+sum.Dropped != sum.Pushed {
		v.violate("shard merge: Σ assigned %d + Σ dropped %d != Σ pushed %d",
			sum.Assigned, sum.Dropped, sum.Pushed)
	}
	if sum.Requeued != sum.Retried+sum.DeadLettered {
		v.violate("shard merge: retry ledger open: Σ requeued %d != Σ retried %d + Σ dead-lettered %d",
			sum.Requeued, sum.Retried, sum.DeadLettered)
	}
}

// CheckShardCover closes the read-routing equation after a shard
// merge: every read is assigned to exactly one shard (Σ assigned ==
// totalReads) and each shard simulated exactly the reads it was
// assigned (assigned[i] == executed[i]). Under the balanced policy a
// stolen read is assigned to — and therefore counted on — its thief
// only, so the equation holds exactly when stealing moves reads and
// breaks if a steal ever duplicates or drops one.
func (v *Invariants) CheckShardCover(totalReads int64, assigned, executed []int64) {
	if v == nil {
		return
	}
	v.checked++
	if len(assigned) != len(executed) {
		v.violate("shard cover: %d assignments for %d shard reports", len(assigned), len(executed))
		return
	}
	var sum int64
	for i := range assigned {
		sum += assigned[i]
		if assigned[i] != executed[i] {
			v.violate("shard cover: shard %d assigned %d reads but simulated %d",
				i, assigned[i], executed[i])
		}
	}
	if sum != totalReads {
		v.violate("shard cover open: Σ assigned %d != total reads %d (a steal duplicated or dropped a read)",
			sum, totalReads)
	}
}
