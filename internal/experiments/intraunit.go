package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/accel"
)

// IntraUnitRow is one scheduling level of the Sec. IV-B discussion.
type IntraUnitRow struct {
	Name             string
	Cycles           int64
	ThroughputKReads float64
	SUUtil           float64
}

// IntraUnit compares the three scheduling levels the paper's Sec. IV-B
// discussion distinguishes:
//
//  1. no scheduling (Read-in-Batch, DRAM latency exposed),
//  2. ERT-style intra-unit context switching only (DRAM hidden inside
//     each SU, batch barrier remains),
//  3. NvWa's One-Cycle Read Allocator (inter-unit bubbles also gone).
func IntraUnit(env *Env) []IntraUnitRow {
	configs := []struct {
		name      string
		seed      accel.SeedStrategy
		serialize bool
	}{
		{"read-in-batch, no switching", accel.ReadInBatch, true},
		{"read-in-batch + ERT-style intra-unit switching", accel.ReadInBatch, false},
		{"one-cycle read allocator (NvWa)", accel.OneCycle, false},
	}
	var rows []IntraUnitRow
	for _, c := range configs {
		o := env.NvWaOptions()
		o.SeedStrategy = c.seed
		o.SUCost.SerializeDRAM = c.serialize
		rep := env.run(o)
		rows = append(rows, IntraUnitRow{
			Name:             c.name,
			Cycles:           rep.Cycles,
			ThroughputKReads: rep.ThroughputReadsPerSec / 1000,
			SUUtil:           rep.SUUtil,
		})
	}
	return rows
}

// FormatIntraUnit renders the comparison.
func FormatIntraUnit(rows []IntraUnitRow) string {
	var b strings.Builder
	b.WriteString("Sec. IV-B — intra-unit vs inter-unit scheduling levels\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-48s %9d cycles  %8.0fK  SU %5.1f%%\n",
			r.Name, r.Cycles, r.ThroughputKReads, 100*r.SUUtil)
	}
	return b.String()
}
