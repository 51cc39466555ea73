package obs

import (
	"strings"
	"testing"
)

func TestMirror(t *testing.T) {
	t.Parallel()
	if Mirror(nil) != nil {
		t.Error("Mirror(nil) should be nil")
	}
	parent := New()
	m := Mirror(parent)
	if m.Metrics == nil || m.Trace == nil || m.Inv == nil {
		t.Error("full observer mirrored with missing facilities")
	}
	if m.Metrics == parent.Metrics || m.Trace == parent.Trace || m.Inv == parent.Inv {
		t.Error("mirror aliases parent state")
	}
	partial := NewInvariantsOnly()
	pm := Mirror(partial)
	if pm.Metrics != nil || pm.Trace != nil {
		t.Error("mirror enabled facilities the parent lacks")
	}
	if pm.Inv == nil || pm.Inv == partial.Inv {
		t.Error("mirror dropped the parent's invariant checker or aliases it")
	}
}

func TestRegistryAbsorb(t *testing.T) {
	t.Parallel()
	parent := NewRegistry()
	parent.Counter("hits.pushed").Add(10)

	shard := NewRegistry()
	shard.Counter("hits.pushed").Add(5)
	shard.Gauge("sim.cycles").Set(123)
	shard.Series("su.util").Sample(1, 0.5)
	shard.Histogram("hit.len", []float64{1, 2}).Observe(1.5)

	parent.Absorb(shard, 2)
	snap := parent.Snapshot()
	if got := snap.Counters["hits.pushed"]; got != 15 {
		t.Errorf("counter sum = %d, want 15", got)
	}
	if got, ok := snap.Gauges["shard2.sim.cycles"]; !ok || got != 123 {
		t.Errorf("prefixed gauge = %v (present %v)", got, ok)
	}
	if _, ok := snap.Gauges["sim.cycles"]; ok {
		t.Error("shard gauge leaked into the unprefixed namespace")
	}
	if pts := snap.Series["shard2.su.util"]; len(pts) != 1 {
		t.Errorf("prefixed series points = %d, want 1", len(pts))
	}
	// Same-bounds histograms merge bucket-wise, unprefixed.
	parent.Histogram("hit.len", []float64{1, 2}).Observe(0.5)
	shard2 := NewRegistry()
	shard2.Histogram("hit.len", []float64{1, 2}).Observe(1.7)
	parent.Absorb(shard2, 3)
	if h := parent.Snapshot().Histograms["hit.len"]; h.Count != 3 {
		t.Errorf("merged histogram count = %d, want 3", h.Count)
	}
}

func TestRegistryAbsorbOrderIndependent(t *testing.T) {
	t.Parallel()
	mkShard := func(id int, v float64) *Registry {
		r := NewRegistry()
		r.Counter("c").Add(int64(id + 1))
		r.Gauge("g").Set(v)
		return r
	}
	a, b := NewRegistry(), NewRegistry()
	s0, s1 := mkShard(0, 1.5), mkShard(1, 2.5)
	a.Absorb(s0, 0)
	a.Absorb(s1, 1)
	b.Absorb(s1, 1)
	b.Absorb(s0, 0)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Counters["c"] != sb.Counters["c"] || sa.Gauges["shard0.g"] != sb.Gauges["shard0.g"] {
		t.Error("absorb order changed the merged registry")
	}
}

func TestTraceAbsorb(t *testing.T) {
	t.Parallel()
	parent := NewTrace()
	shard := NewTrace()
	shard.Complete(PidSU, 3, "su", "align", 100, 150, nil)

	parent.Absorb(shard, 1)
	var sb strings.Builder
	if err := parent.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Shard 1's pids shift by (1+1)*PidShardStride = 16 and its process
	// names carry the shard tag.
	if !strings.Contains(out, `"shard 1: `) {
		t.Errorf("merged trace missing shard-tagged process name:\n%s", out)
	}
	wantPid := PidSU + 2*PidShardStride
	if !strings.Contains(out, `"pid":`) {
		t.Fatalf("no pids in trace:\n%s", out)
	}
	found := false
	for _, tok := range strings.Split(out, "{") {
		if strings.Contains(tok, `"align"`) && strings.Contains(tok, `"pid":`+itoa(wantPid)) {
			found = true
		}
	}
	if !found {
		t.Errorf("shard event pid not offset to %d:\n%s", wantPid, out)
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestInvariantsAbsorbShard(t *testing.T) {
	t.Parallel()
	mk := func(push, assign, complete int) *Invariants {
		v := &Invariants{}
		v.RecordPush(push)
		v.RecordAssigned(assign)
		v.RecordCompleted(complete)
		return v
	}
	parent := &Invariants{}
	parent.AbsorbShard(mk(5, 5, 5), 0)
	parent.AbsorbShard(mk(3, 3, 3), 1)
	l := parent.Ledger()
	if l.Pushed != 8 || l.Assigned != 8 || l.Completed != 8 {
		t.Errorf("ledger sums wrong: %+v", l)
	}

	// Shard violations carry over prefixed.
	bad := &Invariants{}
	bad.CheckTime(10)
	bad.CheckTime(5) // time goes backwards → violation
	parent2 := &Invariants{}
	parent2.AbsorbShard(bad, 3)
	if err := parent2.Err(); err == nil || !strings.Contains(err.Error(), "shard 3:") {
		t.Errorf("shard violation not carried with prefix: %v", err)
	}
}

func TestCheckShardConservation(t *testing.T) {
	t.Parallel()
	mk := func(push, assign, drop int) *Invariants {
		v := &Invariants{}
		v.RecordPush(push)
		v.RecordAssigned(assign)
		v.RecordDropped(drop, "test")
		return v
	}
	// Sound merge: ledgers sum, every hit accounted.
	parent := &Invariants{}
	a, b := mk(6, 5, 1), mk(4, 4, 0)
	ledgers := []Ledger{a.Ledger(), b.Ledger()}
	parent.AbsorbShard(a, 0)
	parent.AbsorbShard(b, 1)
	parent.CheckShardConservation(10, ledgers)
	if err := parent.Err(); err != nil {
		t.Fatalf("sound merge flagged: %v", err)
	}

	// A leaked hit (totalHits != Σ pushed + Σ shed) must be caught.
	parent2 := &Invariants{}
	parent2.AbsorbShard(mk(6, 5, 1), 0)
	parent2.CheckShardConservation(7, []Ledger{mk(6, 5, 1).Ledger()})
	if err := parent2.Err(); err == nil || !strings.Contains(err.Error(), "total hits") {
		t.Errorf("hit leak not caught: %v", err)
	}

	// A merged ledger that is not the shard sum must be caught.
	parent3 := &Invariants{}
	parent3.AbsorbShard(mk(6, 6, 0), 0)
	parent3.CheckShardConservation(6, []Ledger{{Pushed: 5, Assigned: 5}})
	if err := parent3.Err(); err == nil || !strings.Contains(err.Error(), "Σ shard ledgers") {
		t.Errorf("ledger mismatch not caught: %v", err)
	}
}
