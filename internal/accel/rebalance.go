package accel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nvwa/internal/fmindex"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// Dynamic shard rebalancing: the "balanced" partitioning policy.
//
// The static policies leave the slowest shard dominating the scale-out
// makespan (the BENCH_scaleout.json falloff): contiguous partitioning
// equalizes read counts, not read costs, and per-read seeding cost is
// diverse by construction (the paper's Challenge-1). The balanced
// policy closes the gap with work stealing — idle shards steal trailing
// read ranges from the heaviest shard — while preserving the engine's
// determinism contract.
//
// The key observation making the steal protocol deterministic is that
// every quantity it consumes is computable before any shard starts
// simulating: per-read work estimates come from a cheap seed-density
// probe of the immutable FM-index, so the whole steal schedule can be
// resolved in estimate space up front. The protocol simulates shard
// progress in fixed credit epochs; at each epoch boundary the shards
// that have exhausted their queue steal, in ascending thief id, the
// trailing half of the heaviest victim's unprocessed queue (victims
// ordered by remaining estimated work, lowest id on ties). That makes
// the resulting partition — and the StealLog describing it — a pure
// function of (workload, shard count): serial, parallel, and
// any-worker-count runs execute the identical schedule, so the merged
// Report is byte-identical across all of them. And because per-read
// Results are invariant to which chip a read lands on, the merged
// Report is also invariant to whether any individual read was stolen —
// only the makespan and utilization change.

// Balanced-policy tuning. The probe constants mirror the SU cost model
// and the FM-index front end: k-mers of the minimum seed length are
// counted on both strands (reverse-strand repeats are invisible to a
// forward-only probe) at a fixed stride, with each occurrence count
// capped at the pipeline's per-seed occurrence budget. The estimated
// cost is an affine model of the capped occurrence mass — calibrated so
// its per-read correlation with simulated cycles is ~0.6 on the 101 bp
// workloads, which is enough for the planner to equalize per-shard
// totals to within a fraction of a percent.
const (
	// probeKmerLen matches pipeline.DefaultOptions().MinSeedLen: the
	// shortest pattern the seeder would actually search.
	probeKmerLen = 15
	// probeStride spaces the probed k-mers along the read.
	probeStride = 6
	// probeOccCap mirrors the seeder's per-seed occurrence budget
	// (MaxOcc): occurrences past the cap cost the pipeline nothing.
	probeOccCap = 16
	// probeOccCost weights one (capped) occurrence in estimate units.
	probeOccCost = 220.0
	// probeBaseCost and probePerBaseCost model the fixed per-read
	// overhead and the length-proportional search cost.
	probeBaseCost    = 100.0
	probePerBaseCost = 4.0
	// stealEpochs sets the credit quantum: total estimated work /
	// (shards × stealEpochs) per shard per epoch. Finer quanta resolve
	// steals closer to the true imbalance at more planning cost.
	stealEpochs = 1024
	// stealMaxEpochs bounds the planning loop against degenerate cost
	// vectors; hitting it leaves the current (still exact) assignment.
	stealMaxEpochs = 1 << 21
	// drainWindowFrac is the trailing fraction of each shard's
	// estimated work reordered heaviest-first, so the lightest reads
	// finish last and the chip's extension drain tail stays short.
	drainWindowFrac = 0.10
)

// EstimateReadCosts returns the balanced policy's per-read work
// estimates: a seed-density probe of the aligner's FM-index. Each
// read's k-mers are counted on both strands at a fixed stride, capped
// at the seeder's occurrence budget, and folded into an affine cost
// model of the SU's traffic. The probe touches only the immutable
// index, so the result is a pure function of (index, reads) — workers
// only bounds the fan-out (<= 0 means GOMAXPROCS) and never affects
// the values.
func EstimateReadCosts(a *pipeline.Aligner, reads []seq.Seq, workers int) []float64 {
	idx := a.Seeder().Bi()
	costs := make([]float64, len(reads))
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
				costs[i] = probeReadCost(idx, reads[i])
			}
		}()
	}
	wg.Wait()
	return costs
}

// probeReadCost estimates one read's simulated work from its capped
// k-mer occurrence mass on both strands, counted by plain backward
// search over the seeder's forward index (T·revcomp(T)). The probe is
// host-side planning, not simulated work, so it charges no Stats.
func probeReadCost(idx *fmindex.BiIndex, read seq.Seq) float64 {
	cost := probeBaseCost + probePerBaseCost*float64(len(read))
	probe := func(r seq.Seq) {
		for off := 0; off+probeKmerLen <= len(r); off += probeStride {
			c := idx.Fwd().Count(r[off:off+probeKmerLen], nil)
			if c > probeOccCap {
				c = probeOccCap
			}
			cost += probeOccCost * float64(c)
		}
	}
	probe(read)
	if len(read) >= probeKmerLen {
		probe(read.RevComp())
	}
	return cost
}

// StealEvent is one resolved steal: at epoch boundary Epoch, shard
// Thief (its own queue exhausted) took the trailing Count reads —
// EstCost estimated work — from shard Victim's unprocessed queue.
// Events are recorded in resolution order, which is a total order on
// (epoch, victim, thief): within an epoch thieves resolve in ascending
// id, each against the heaviest-remaining victim (lowest id on ties).
type StealEvent struct {
	Epoch   int
	Victim  int
	Thief   int
	Count   int
	EstCost float64
}

// PlanBalanced computes the balanced policy's partition: starting from
// the contiguous assignment, it simulates shard progress over the cost
// estimates in fixed credit epochs and resolves steals at each epoch
// boundary, then reorders each shard's trailing drain window heaviest-
// first. The returned parts are an exact disjoint cover of [0,
// len(costs)) — stealing moves reads, never duplicates or drops them —
// and both return values are pure functions of (costs, shards).
// Replaying the StealLog with ApplySteals over the contiguous
// assignment reproduces the partition (up to the drain-window
// reordering).
func PlanBalanced(costs []float64, shards int) ([][]int, []StealEvent) {
	queues, log := planStealQueues(costs, shards)
	orderDrainWindow(queues, costs, drainWindowFrac)
	return queues, log
}

// planStealQueues runs the epoch credit simulation and returns the
// post-steal queues in execution order plus the steal log.
func planStealQueues(costs []float64, shards int) ([][]int, []StealEvent) {
	if shards < 1 {
		shards = 1
	}
	queues := copyParts(PartitionReads(len(costs), shards, ShardContiguous))
	var total float64
	for _, c := range costs {
		total += c
	}
	if shards <= 1 || total <= 0 {
		return queues, nil
	}

	q := total / float64(shards*stealEpochs)
	done := make([]int, shards) // queue position processed so far
	credit := make([]float64, shards)
	rem := make([]float64, shards) // unprocessed estimated work per shard
	for i, qu := range queues {
		for _, g := range qu {
			rem[i] += costs[g]
		}
	}
	var log []StealEvent
	for epoch := 0; epoch < stealMaxEpochs; epoch++ {
		// Advance every shard by one credit quantum, consuming whole
		// reads from the front of its queue.
		busy := false
		for i := 0; i < shards; i++ {
			credit[i] += q
			for done[i] < len(queues[i]) && credit[i] >= costs[queues[i][done[i]]] {
				c := costs[queues[i][done[i]]]
				credit[i] -= c
				rem[i] -= c
				done[i]++
			}
			if done[i] < len(queues[i]) {
				busy = true
			} else {
				credit[i] = 0 // an idle chip banks no credit
			}
		}
		if !busy {
			break
		}
		// Epoch boundary: exhausted shards steal, in ascending thief
		// id, the trailing ~half of the heaviest victim's unprocessed
		// queue. A victim must keep at least one unprocessed read.
		for thief := 0; thief < shards; thief++ {
			if done[thief] < len(queues[thief]) {
				continue
			}
			victim := -1
			for v := 0; v < shards; v++ {
				if len(queues[v])-done[v] >= 2 && (victim < 0 || rem[v] > rem[victim]) {
					victim = v
				}
			}
			if victim < 0 || rem[victim] <= 0 {
				continue
			}
			vq := queues[victim]
			cut := len(vq)
			var stolen float64
			for cut > done[victim]+1 && stolen < rem[victim]/2 {
				cut--
				stolen += costs[vq[cut]]
			}
			count := len(vq) - cut
			if count == 0 {
				continue
			}
			queues[thief] = append(queues[thief], vq[cut:]...)
			queues[victim] = vq[:cut]
			rem[thief] += stolen
			rem[victim] -= stolen
			log = append(log, StealEvent{
				Epoch: epoch, Victim: victim, Thief: thief,
				Count: count, EstCost: stolen,
			})
		}
	}
	return queues, log
}

// ApplySteals replays a steal schedule over a partition: each event
// moves the trailing Count reads of the victim's queue onto the tail of
// the thief's, in log order. The input is never mutated. Malformed
// events (out-of-range ids, victim == thief) are skipped and Count is
// clamped to the victim's current queue, so any event sequence yields
// an exact disjoint cover of the same indices — the property the fuzz
// target pins. Replaying PlanBalanced's log over the contiguous
// assignment reproduces its pre-drain-window queues exactly.
func ApplySteals(parts [][]int, events []StealEvent) [][]int {
	out := copyParts(parts)
	for _, e := range events {
		if e.Victim < 0 || e.Victim >= len(out) || e.Thief < 0 || e.Thief >= len(out) || e.Victim == e.Thief {
			continue
		}
		c := e.Count
		if c > len(out[e.Victim]) {
			c = len(out[e.Victim])
		}
		if c <= 0 {
			continue
		}
		vq := out[e.Victim]
		cut := len(vq) - c
		out[e.Thief] = append(out[e.Thief], vq[cut:]...)
		out[e.Victim] = vq[:cut]
	}
	return out
}

// copyParts deep-copies a partition, keeping empty parts non-nil so
// copies compare equal to planner output under reflect.DeepEqual.
func copyParts(parts [][]int) [][]int {
	out := make([][]int, len(parts))
	for i, p := range parts {
		cp := make([]int, len(p))
		copy(cp, p)
		out[i] = cp
	}
	return out
}

// orderDrainWindow reorders, in place, the suffix of each queue holding
// the trailing frac of its estimated work so the heaviest reads in the
// window run first: the shard then drains on its lightest reads, which
// shortens the extension-unit tail where no new seeding work overlaps
// the last extensions. Only the trailing window moves — reordering the
// whole queue heaviest-first front-loads hit bursts into the
// Coordinator's bounded buffer and stalls the SUs (measured, not
// hypothetical). The stable sort keeps the result a pure function of
// (queues, costs).
func orderDrainWindow(queues [][]int, costs []float64, frac float64) {
	for _, q := range queues {
		var total float64
		for _, g := range q {
			total += costs[g]
		}
		win := total * frac
		cut := len(q)
		var acc float64
		for cut > 0 && acc < win {
			cut--
			acc += costs[q[cut]]
		}
		suffix := q[cut:]
		sort.SliceStable(suffix, func(a, b int) bool {
			return costs[suffix[a]] > costs[suffix[b]]
		})
	}
}
