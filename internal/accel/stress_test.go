package accel

import (
	"testing"

	"nvwa/internal/core"
	"nvwa/internal/seq"
)

func TestPathologicalConfigs(t *testing.T) {
	t.Parallel()
	nReads := 150
	if testing.Short() {
		nReads = 60
	}
	a, reads := testWorkload(t, nReads, 61)
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"single SU", func(o *Options) { o.Config.NumSUs = 1 }},
		{"single EU", func(o *Options) {
			o.Config.EUClasses = []core.EUClass{{PEs: 64, Count: 1}}
		}},
		{"buffer depth 1", func(o *Options) { o.Config.HitsBufferDepth = 1 }},
		{"two classes only", func(o *Options) {
			o.Config.EUClasses = []core.EUClass{{PEs: 16, Count: 3}, {PEs: 128, Count: 2}}
		}},
	}
	want := make([]int, len(reads))
	for i, r := range reads {
		res := a.Align(i, r)
		if res.Found {
			want[i] = res.Score
		}
	}
	for _, tc := range cases {
		o := smallOpts()
		tc.mut(&o)
		sys, err := New(a, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := sys.Run(reads)
		if rep.Reads != len(reads) {
			t.Fatalf("%s: processed %d reads", tc.name, rep.Reads)
		}
		for i := range reads {
			got := 0
			if rep.Results[i].Found {
				got = rep.Results[i].Score
			}
			if got != want[i] {
				t.Fatalf("%s: read %d score %d, want %d", tc.name, i, got, want[i])
			}
		}
	}
}

func TestIdenticalReadsWorkload(t *testing.T) {
	t.Parallel()
	// Every SU gets the same work: no diversity, so batch and one-cycle
	// must be nearly equivalent — a sanity check that the OCRA gain
	// really comes from diversity.
	a, reads := testWorkload(t, 64, 63)
	same := make([]seq.Seq, 64)
	for i := range same {
		same[i] = reads[0]
	}
	oc := smallOpts()
	batch := smallOpts()
	batch.SeedStrategy = ReadInBatch
	sysOC, _ := New(a, oc)
	sysB, _ := New(a, batch)
	rOC := sysOC.Run(same)
	rB := sysB.Run(same)
	ratio := float64(rB.Cycles) / float64(rOC.Cycles)
	if ratio > 1.3 {
		t.Errorf("uniform workload: batch/one-cycle ratio %.2f, want near 1", ratio)
	}
}

func TestManyMoreReadsThanBufferAndUnits(t *testing.T) {
	t.Parallel()
	nReads := 800
	if testing.Short() {
		nReads = 300
	}
	a, reads := testWorkload(t, nReads, 65)
	o := smallOpts()
	o.Config.NumSUs = 4
	o.Config.HitsBufferDepth = 16
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(reads)
	extended := 0
	for _, r := range rep.Results {
		extended += r.Hits
	}
	if extended != rep.TotalHits {
		t.Fatalf("conservation violated under pressure: %d vs %d", extended, rep.TotalHits)
	}
	if rep.Switches < 10 {
		t.Errorf("expected many buffer switches, got %d", rep.Switches)
	}
}
