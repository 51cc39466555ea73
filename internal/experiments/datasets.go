package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/genome"
	"nvwa/internal/stats"
)

// Fig14Row is one dataset of the sensitivity study.
type Fig14Row struct {
	Dataset string
	Long    bool
	// ThroughputKReads is the simulated NvWa throughput.
	ThroughputKReads float64
	// SoftwareKReads is the measured software pipeline throughput.
	SoftwareKReads float64
	// Speedup is NvWa over the software baseline (the paper reports
	// 285.6-357x for short reads and 259-272x for long reads against
	// its 16-thread CPU).
	Speedup float64
	// Distribution is the hit-length share per interval (Fig. 14(b)).
	Distribution []float64
}

// Fig14With runs NvWa (with the H. sapiens-derived configuration, as
// the paper fixes the hardware from NA12878 statistics) across the six
// species proxies plus a long-read workload, under an explicit
// execution policy. Each dataset
// row — genome synthesis, index construction, read simulation, and
// the NvWa simulation — is fully independent of the others (only the
// shared human-derived hardware configuration crosses rows, and it is
// computed first), so rows fan across the runner's workers whole. Row
// order is the fixed profile order regardless of completion order.
func Fig14With(refLen, numReads int, seed int64, r *Runner) []Fig14Row {
	human := NewEnv(refLen, numReads, seed)
	profiles := []genome.Profile{
		genome.HumanLike(),
		genome.ClitarchusLike,
		genome.ZapusLike,
		genome.CamelusLike,
		genome.VenustaLike,
		genome.ElegansLike,
	}
	longReads := numReads / 10
	if longReads < 20 {
		longReads = 20
	}
	rows := make([]Fig14Row, len(profiles)+1)
	r.Map(len(rows), func(i int) {
		if i < len(profiles) {
			p := profiles[i]
			env := NewEnvProfile(p, genome.ShortReadConfig(seed+int64(i)+7), refLen, numReads, seed+int64(i)+100)
			rows[i] = fig14Row(env, human, p.Name, false, r)
			return
		}
		// Long reads on the human-like genome (GACT-style iterative
		// extension on the largest EU class).
		longEnv := NewEnvProfile(genome.HumanLike(), genome.LongReadConfig(seed+55), refLen, longReads, seed+200)
		rows[i] = fig14Row(longEnv, human, "H.sapiens-like (1 kbp long reads)", true, r)
	})
	return rows
}

// fig14Row simulates one dataset with the hardware configuration
// derived from the reference (human) workload.
func fig14Row(env, hwEnv *Env, name string, long bool, r *Runner) Fig14Row {
	o := env.NvWaOptions()
	o.Config.EUClasses = hwEnv.Classes // hardware fixed from NA12878-like stats
	rep := env.run(o)
	sw := env.softwareRPS(r)
	row := Fig14Row{
		Dataset:          name,
		Long:             long,
		ThroughputKReads: rep.ThroughputReadsPerSec / 1000,
		SoftwareKReads:   sw / 1000,
	}
	if sw > 0 {
		row.Speedup = rep.ThroughputReadsPerSec / sw
	}
	row.Distribution = stats.NewIntervalHistogram([]int{16, 32, 64, 128}, rep.HitLens).Fractions()
	return row
}

// FormatFig14 renders the sensitivity table.
func FormatFig14(rows []Fig14Row) string {
	var b strings.Builder
	b.WriteString("Fig. 14 — multi-dataset sensitivity (hardware fixed from the H. sapiens profile)\n")
	b.WriteString("  dataset                              NvWa(K)  software(K)  speedup  hit distribution (<=16/32/64/128+)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-35s %8.0f  %11.1f  %6.0fx  ", r.Dataset, r.ThroughputKReads, r.SoftwareKReads, r.Speedup)
		for _, f := range r.Distribution {
			fmt.Fprintf(&b, "%5.1f%% ", 100*f)
		}
		b.WriteString("\n")
	}
	return b.String()
}
