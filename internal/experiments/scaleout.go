package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/accel"
)

// scaleoutCounts is the shard sweep of the scale-out experiment.
var scaleoutCounts = []int{1, 2, 4, 8, 16}

// scaleoutPolicies are the partitionings the sweep compares: both
// static partitionings plus the work-stealing rebalancer.
var scaleoutPolicies = []accel.ShardPolicy{
	accel.ShardContiguous, accel.ShardInterleaved, accel.ShardBalanced,
}

// ScaleoutRow is one shard count's outcome: the merged makespan (the
// max shard cycle count — all chips run concurrently from cycle 0),
// the shard spread (min/max shard makespans, exposing partition skew),
// and the aggregate simulated throughput, which grows with S because S
// chips serve the same read set in the time of the slowest shard.
type ScaleoutRow struct {
	Shards int
	Policy accel.ShardPolicy
	// Cycles is the merged makespan; MaxShardCycles == Cycles by
	// construction (pinned by TestScaleoutRows), MinShardCycles
	// exposes the skew the interleaved policy is there to fight.
	Cycles, MaxShardCycles, MinShardCycles int64
	// ThroughputReadsPerSec is the merged aggregate throughput.
	ThroughputReadsPerSec float64
	// SUUtil and EUUtil are the cycle-weighted merged utilizations
	// (an early-drained chip counts as powered off once it finishes).
	SUUtil, EUUtil float64
	// SUUtilMakespan and EUUtilMakespan normalize the same busy
	// unit-cycles by S × makespan: an early-drained chip counts as
	// idle capacity until the slowest shard finishes, so these expose
	// the imbalance the cycle-weighted pair partially hides.
	SUUtilMakespan, EUUtilMakespan float64
	// Steals is the number of resolved steal events (balanced policy
	// only; zero under the static policies).
	Steals int
}

// ScaleoutResult is the scale-out sweep: one row per (policy, shard
// count), policy-major, all over the same workload and per-chip
// configuration.
type ScaleoutResult struct {
	Rows []ScaleoutRow
}

// Scaleout sweeps every partitioning policy across shard counts over
// the workload: for each (policy, S) the full NvWa configuration is
// replicated S ways, the read set is partitioned under the policy, and
// the S chips are simulated on the runner's worker pool (the merged
// Reports are invariant to that pool's size — serial and parallel
// sweeps are identical, pinned by the golden tests).
func Scaleout(env *Env, r *Runner) ScaleoutResult {
	var res ScaleoutResult
	for _, pol := range scaleoutPolicies {
		for _, s := range scaleoutCounts {
			res.Rows = append(res.Rows, scaleoutRun(env, s, pol, r))
		}
	}
	return res
}

// scaleoutRun simulates one shard count and reduces its row.
func scaleoutRun(env *Env, shards int, pol accel.ShardPolicy, r *Runner) ScaleoutRow {
	merged, parts, err := env.simulate(accel.ShardedOptions{
		Options: env.NvWaOptions(), Shards: shards, Policy: pol, Workers: r.size(),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: scaleout S=%d: %v", shards, err))
	}
	row := ScaleoutRow{
		Shards:                shards,
		Policy:                pol,
		Cycles:                merged.Cycles,
		MaxShardCycles:        merged.Cycles,
		MinShardCycles:        merged.Cycles,
		ThroughputReadsPerSec: merged.ThroughputReadsPerSec,
		SUUtil:                merged.SUUtil,
		EUUtil:                merged.EUUtil,
		SUUtilMakespan:        merged.SUUtilMakespan,
		EUUtilMakespan:        merged.EUUtilMakespan,
		Steals:                len(merged.StealLog),
	}
	for _, p := range parts {
		if p.Cycles > row.MaxShardCycles {
			row.MaxShardCycles = p.Cycles
		}
		if p.Cycles < row.MinShardCycles {
			row.MinShardCycles = p.Cycles
		}
	}
	return row
}

// Format renders one sweep table per policy; each block's speedup
// column is relative to the block's first row.
func (r ScaleoutResult) Format() string {
	var b strings.Builder
	var base float64
	for i, row := range r.Rows {
		if i == 0 || row.Policy != r.Rows[i-1].Policy {
			if i > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "Scale-out — aggregate throughput vs shard count (%s partitioning)\n", row.Policy)
			fmt.Fprintf(&b, "  %6s %10s %10s %10s %6s %12s %7s %7s %7s %7s %6s\n",
				"shards", "makespan", "min-shard", "max-shard", "skew", "reads/s",
				"su-util", "eu-util", "su-mksp", "eu-mksp", "steals")
			base = row.ThroughputReadsPerSec
		}
		skew := 1.0
		if row.MinShardCycles > 0 {
			skew = float64(row.MaxShardCycles) / float64(row.MinShardCycles)
		}
		speed := 1.0
		if base > 0 {
			speed = row.ThroughputReadsPerSec / base
		}
		fmt.Fprintf(&b, "  %6d %10d %10d %10d %5.2fx %12.0f %7.3f %7.3f %7.3f %7.3f %6d  (%.2fx)\n",
			row.Shards, row.Cycles, row.MinShardCycles, row.MaxShardCycles, skew,
			row.ThroughputReadsPerSec, row.SUUtil, row.EUUtil,
			row.SUUtilMakespan, row.EUUtilMakespan, row.Steals, speed)
	}
	return b.String()
}
