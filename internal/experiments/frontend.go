package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/accel"
	"nvwa/internal/pipeline"
)

// FrontEndRow is one seeding algorithm hosted by the accelerator.
type FrontEndRow struct {
	Name             string
	ThroughputKReads float64
	SUUtil, EUUtil   float64
	HitsPerRead      float64
	Aligned          int
}

// FrontEndsWith demonstrates the paper's Sec. VI flexibility claim at
// system level: the same schedulers, Coordinator, and EUs host two
// different seeding algorithms — the FM-index three-pass pipeline and
// the minimap2-style minimizer seed-and-chain — through the Table III
// unified interface. Under the runner's execution policy the
// front-end rows are independent systems and fan across the runner's
// workers. The minimizer row configures its own Seeder, so the shared
// FM-index memo is (correctly) not consumed there — accel.System
// refuses a memo built over a different front end.
func FrontEndsWith(env *Env, rn *Runner) ([]FrontEndRow, error) {
	ms, err := pipeline.NewMinimizerSeeder(env.Aligner, 10, 15)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		mut  func(*accel.Options)
	}{
		{"FM-index (BWA-MEM three-pass)", func(o *accel.Options) {}},
		{"minimizer seed-and-chain (minimap2-style)", func(o *accel.Options) { o.Seeder = ms }},
	}
	rows := make([]FrontEndRow, len(configs))
	rn.Map(len(configs), func(i int) {
		c := configs[i]
		o := env.NvWaOptions()
		c.mut(&o)
		rep := env.runWith(o, rn)
		aligned := 0
		for _, r := range rep.Results {
			if r.Found {
				aligned++
			}
		}
		rows[i] = FrontEndRow{
			Name:             c.name,
			ThroughputKReads: rep.ThroughputReadsPerSec / 1000,
			SUUtil:           rep.SUUtil,
			EUUtil:           rep.EUUtil,
			HitsPerRead:      float64(rep.TotalHits) / float64(max1(rep.Reads)),
			Aligned:          aligned,
		}
	})
	return rows, nil
}

// FormatFrontEnds renders the comparison.
func FormatFrontEnds(rows []FrontEndRow) string {
	var b strings.Builder
	b.WriteString("Sec. VI — seeding front ends through the unified interface\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-44s %8.0fK  SU %5.1f%%  EU %5.1f%%  %.2f hits/read  %d aligned\n",
			r.Name, r.ThroughputKReads, 100*r.SUUtil, 100*r.EUUtil, r.HitsPerRead, r.Aligned)
	}
	return b.String()
}
