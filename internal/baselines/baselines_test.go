package baselines

import (
	"math"
	"testing"
)

func TestPlatformsConsistency(t *testing.T) {
	ps := Platforms()
	if len(ps) != 7 {
		t.Fatalf("got %d platforms", len(ps))
	}
	var nvwa, cpu, genax, susEus *Platform
	for i := range ps {
		switch ps[i].Kind {
		case "this work":
			nvwa = &ps[i]
		}
		switch {
		case ps[i].Name == "BWA-MEM (16-thread CPU)":
			cpu = &ps[i]
		case ps[i].Name == "GenAx (ASIC)":
			genax = &ps[i]
		case ps[i].Name == "SUs+EUs (no scheduling)":
			susEus = &ps[i]
		}
	}
	if nvwa == nil || cpu == nil || genax == nil || susEus == nil {
		t.Fatal("missing platforms")
	}
	if nvwa.ThroughputKReads != NvWaReportedKReads {
		t.Error("NvWa throughput mismatch")
	}
	// Speedup ratios must be self-consistent.
	if r := nvwa.ThroughputKReads / cpu.ThroughputKReads; math.Abs(r-493) > 0.5 {
		t.Errorf("CPU speedup = %v", r)
	}
	// SUs+EUs is 88.79% of GenAx (Sec. V-C).
	if r := susEus.ThroughputKReads / genax.ThroughputKReads; math.Abs(r-0.8879) > 1e-6 {
		t.Errorf("SUs+EUs/GenAx = %v", r)
	}
	// The paper's cross-check: SUs+EUs is also ~16.93% of GenCache.
	var gencache *Platform
	for i := range ps {
		if ps[i].Name == "GenCache (PIM)" {
			gencache = &ps[i]
		}
	}
	if r := susEus.ThroughputKReads / gencache.ThroughputKReads; math.Abs(r-0.1693) > 0.002 {
		t.Errorf("SUs+EUs/GenCache = %v, want ~0.1693", r)
	}
}
