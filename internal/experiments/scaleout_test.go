package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nvwa/internal/accel"
)

// TestScaleoutDeterministic pins the scale-out sweep to the golden
// determinism contract: serial and parallel runners produce identical
// result structs and formatted bytes, under every partitioning policy.
func TestScaleoutDeterministic(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	counts := scaleoutCounts
	ser := Scaleout(env, NewRunner(1))
	par := Scaleout(env, NewRunner(4))
	if !reflect.DeepEqual(ser, par) {
		t.Error("serial and parallel scale-out sweeps differ")
	}
	if ser.Format() != par.Format() {
		t.Error("formatted sweep output differs")
	}
	if want := len(scaleoutPolicies) * len(counts); len(ser.Rows) != want {
		t.Fatalf("%d rows, want %d", len(ser.Rows), want)
	}
	for i, row := range ser.Rows {
		if pol := scaleoutPolicies[i/len(counts)]; row.Policy != pol || row.Shards != counts[i%len(counts)] {
			t.Errorf("row %d is %s S=%d, want %s S=%d", i, row.Policy, row.Shards, pol, counts[i%len(counts)])
		}
	}
	for _, pol := range scaleoutPolicies {
		if head := fmt.Sprintf("(%s partitioning)", pol); !strings.Contains(ser.Format(), head) {
			t.Errorf("formatted sweep lacks the %s table", pol)
		}
	}
}

// TestScaleoutRows checks the sweep's internal consistency: makespan
// equals the max shard makespan by construction, aggregate throughput
// never decreases with the shard count under a static policy, S=4
// beats S=1 under every policy, and S=1 matches the unsharded system.
func TestScaleoutRows(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	counts := scaleoutCounts
	res := Scaleout(env, NewRunner(1))
	base := env.RunNvWa()
	for p, pol := range scaleoutPolicies {
		rows := res.Rows[p*len(counts) : (p+1)*len(counts)]
		if rows[0].Cycles != base.Cycles {
			t.Errorf("%s S=1 makespan %d != unsharded %d", pol, rows[0].Cycles, base.Cycles)
		}
		if rows[2].ThroughputReadsPerSec <= rows[0].ThroughputReadsPerSec {
			t.Errorf("%s: S=4 throughput %.0f <= S=1 throughput %.0f",
				pol, rows[2].ThroughputReadsPerSec, rows[0].ThroughputReadsPerSec)
		}
		prev := 0.0
		for _, row := range rows {
			if row.Cycles != row.MaxShardCycles {
				t.Errorf("%s S=%d: merged makespan %d != max shard %d",
					pol, row.Shards, row.Cycles, row.MaxShardCycles)
			}
			if row.MinShardCycles > row.MaxShardCycles {
				t.Errorf("%s S=%d: min shard %d above max %d",
					pol, row.Shards, row.MinShardCycles, row.MaxShardCycles)
			}
			if pol == accel.ShardContiguous && row.ThroughputReadsPerSec < prev {
				t.Errorf("S=%d: aggregate throughput %.0f fell below S'=%d's %.0f",
					row.Shards, row.ThroughputReadsPerSec, row.Shards/2, prev)
			}
			prev = row.ThroughputReadsPerSec
		}
	}
}

// TestChaosWithShardsConserves is the chaos×shards differential: the
// chaos harness on two chips generates aggregate-machine fault plans,
// partitions them per shard, and the merged ledgers must close exactly
// as the one-chip harness's do.
func TestChaosWithShardsConserves(t *testing.T) {
	t.Parallel()
	env := getEnv(t)
	res := Chaos(env, ChaosConfig{Seeds: 2, Seed: 11}, NewRunner(2))
	if err := res.Err(); err != nil {
		t.Fatalf("sharded chaos sweep failed: %v\n%s", err, res.Format())
	}
	sharded := 0
	for _, row := range res.Rows {
		if row.Shards != 2 {
			continue
		}
		sharded++
		if f := row.Faults; f.Requeued != f.Retried+f.DeadLettered {
			t.Errorf("alloc=%s seed=%d: merged retry ledger open: %d != %d + %d",
				row.Strategy, row.Seed, f.Requeued, f.Retried, f.DeadLettered)
		}
	}
	if sharded != len(chaosStrategies)*2 {
		t.Errorf("%d rows ran on two chips, want %d", sharded, len(chaosStrategies)*2)
	}
	// Determinism across runner worker counts for the sharded sweep.
	again := Chaos(env, ChaosConfig{Seeds: 2, Seed: 11}, NewRunner(1))
	if !reflect.DeepEqual(res, again) {
		t.Errorf("sharded chaos sweep not deterministic across runners")
	}
}
