package fault

import (
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeCanonicalizesDuplicates(t *testing.T) {
	t.Parallel()
	p := &Plan{Events: []Event{
		{Kind: SUFail, Cycle: 500, Unit: 3},
		{Kind: SUStall, Cycle: 100, Unit: 3, Dur: 50},
		{Kind: SUFail, Cycle: 200, Unit: 3}, // earliest failure wins
		{Kind: SUFail, Cycle: 500, Unit: 3}, // re-failure: no-op
		{Kind: EUFail, Cycle: 900, Unit: 7},
		{Kind: EUFail, Cycle: 900, Unit: 7}, // exact duplicate
		{Kind: MemTimeout, Cycle: 50, Unit: -1, Dur: 10},
	}}
	n, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: MemTimeout, Cycle: 50, Unit: -1, Dur: 10},
		{Kind: SUStall, Cycle: 100, Unit: 3, Dur: 50},
		{Kind: SUFail, Cycle: 200, Unit: 3},
		{Kind: EUFail, Cycle: 900, Unit: 7},
	}
	if !reflect.DeepEqual(n.Events, want) {
		t.Fatalf("Normalize:\n got %v\nwant %v", n.Events, want)
	}
	// Idempotent, and the two forms hash identically (the hash is a
	// multiset digest, the no-op re-failures are the only drops).
	n2, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n2.Events, n.Events) {
		t.Fatal("Normalize is not idempotent")
	}
}

func TestNormalizeKeepsStackedStalls(t *testing.T) {
	t.Parallel()
	// Two identical stalls are additive in the injector (the unit
	// stalls twice as long), so canonicalization must not collapse
	// them.
	p := &Plan{Events: []Event{
		{Kind: EUStall, Cycle: 10, Unit: 1, Dur: 8},
		{Kind: EUStall, Cycle: 10, Unit: 1, Dur: 8},
	}}
	n, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Events) != 2 {
		t.Fatalf("stacked stalls collapsed: %v", n.Events)
	}
}

func TestNormalizeRejectsStallAfterFail(t *testing.T) {
	t.Parallel()
	p := &Plan{Events: []Event{
		{Kind: SUFail, Cycle: 100, Unit: 3},
		{Kind: SUStall, Cycle: 200, Unit: 3, Dur: 50},
	}}
	_, err := p.Normalize()
	if err == nil {
		t.Fatal("stall after permanent failure accepted")
	}
	if !strings.Contains(err.Error(), "contradictory") || !strings.Contains(err.Error(), "su-fail@100#3") {
		t.Errorf("error not actionable: %v", err)
	}
	// Same cycle is fine: canonical arm order applies the stall first.
	ok := &Plan{Events: []Event{
		{Kind: SUFail, Cycle: 100, Unit: 3},
		{Kind: SUStall, Cycle: 100, Unit: 3, Dur: 50},
	}}
	if _, err := ok.Normalize(); err != nil {
		t.Errorf("same-cycle stall rejected: %v", err)
	}
	// A stall on a different unit is unrelated.
	other := &Plan{Events: []Event{
		{Kind: SUFail, Cycle: 100, Unit: 3},
		{Kind: SUStall, Cycle: 200, Unit: 4, Dur: 50},
	}}
	if _, err := other.Normalize(); err != nil {
		t.Errorf("cross-unit stall rejected: %v", err)
	}
}

func TestNormalizeRejectsDuplicateCrash(t *testing.T) {
	t.Parallel()
	p := &Plan{Events: []Event{
		{Kind: ChipCrash, Cycle: 5000, Unit: 1},
		{Kind: ChipCrash, Cycle: 5000, Unit: 1},
	}}
	if _, err := p.Normalize(); err == nil {
		t.Fatal("duplicate chip-crash accepted")
	}
	// Distinct cycles are a legitimate repeated-crash schedule.
	ok := &Plan{Events: []Event{
		{Kind: ChipCrash, Cycle: 5000, Unit: 1},
		{Kind: ChipCrash, Cycle: 9000, Unit: 1},
	}}
	n, err := ok.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Events) != 2 {
		t.Fatalf("repeated crash schedule mangled: %v", n.Events)
	}
}

func TestParseSpecRejectsDuplicateKeys(t *testing.T) {
	t.Parallel()
	if _, err := ParseSpec("seed=1,seed=2"); err == nil {
		t.Fatal("duplicate spec key accepted (silent last-wins)")
	}
	if _, err := ParseSpec("seed=1,su-fail=2,su-fail=2"); err == nil {
		t.Fatal("repeated identical key accepted")
	}
	if _, err := ParseSpec("seed=1,su-fail=2"); err != nil {
		t.Fatalf("distinct keys rejected: %v", err)
	}
}

func TestHashOrderInsensitiveWithDuplicates(t *testing.T) {
	t.Parallel()
	a := &Plan{Events: []Event{
		{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8},
		{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8},
		{Kind: EUFail, Cycle: 20, Unit: 2},
	}}
	b := &Plan{Events: []Event{
		{Kind: EUFail, Cycle: 20, Unit: 2},
		{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8},
		{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8},
	}}
	if a.Hash() != b.Hash() {
		t.Fatal("wire-format hash is order-sensitive")
	}
	single := &Plan{Events: a.Events[1:]}
	if a.Hash() == single.Hash() {
		t.Fatal("hash ignores multiplicity")
	}
}

func TestChipCrashEncodeParseRoundTrip(t *testing.T) {
	t.Parallel()
	p := &Plan{Events: []Event{
		{Kind: ChipCrash, Cycle: 40_000, Unit: 2},
		{Kind: SUStall, Cycle: 100, Unit: 3, Dur: 50},
	}}
	enc := p.Encode()
	if want := "v1;chip-crash@40000#2;su-stall@100#3+50"; enc != want {
		t.Fatalf("Encode = %q, want %q", enc, want)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch: %v", got.Events)
	}
	if _, err := Parse("v1;chip-crash@40000#2+10"); err == nil {
		t.Error("chip-crash with duration accepted")
	}
	if _, err := Parse("v1;chip-crash@40000"); err == nil {
		t.Error("chip-crash without shard accepted")
	}
}

func TestSplitChipCrashes(t *testing.T) {
	t.Parallel()
	noCrash := &Plan{Events: []Event{{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8}}}
	rest, crashes := SplitChipCrashes(noCrash)
	if rest != noCrash || crashes != nil {
		t.Fatal("crash-free plan must pass through pointer-equal")
	}
	if r, c := SplitChipCrashes(nil); r != nil || c != nil {
		t.Fatal("nil plan must split to nil")
	}
	mixed := &Plan{Events: []Event{
		{Kind: ChipCrash, Cycle: 9000, Unit: 0},
		{Kind: SUStall, Cycle: 10, Unit: 1, Dur: 8},
		{Kind: ChipCrash, Cycle: 5000, Unit: 1},
	}}
	rest, crashes = SplitChipCrashes(mixed)
	if len(rest.Events) != 1 || rest.Events[0].Kind != SUStall {
		t.Fatalf("rest = %v", rest.Events)
	}
	if len(crashes) != 2 || crashes[0].Cycle != 5000 || crashes[1].Cycle != 9000 {
		t.Fatalf("crashes not canonically ordered: %v", crashes)
	}
	onlyCrash := &Plan{Events: []Event{{Kind: ChipCrash, Cycle: 5000, Unit: 0}}}
	rest, crashes = SplitChipCrashes(onlyCrash)
	if rest != nil {
		t.Fatal("crash-only plan must strip to nil (fault-free injection path)")
	}
	if len(crashes) != 1 {
		t.Fatalf("crashes = %v", crashes)
	}
}
