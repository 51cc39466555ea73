package experiments

import (
	"fmt"
	"strings"

	"nvwa/internal/align"
	"nvwa/internal/pipeline"
)

// BandRow is one initial-band policy of the SeedEx discussion.
type BandRow struct {
	Policy string
	// Retries is the total number of band attempts across all hits
	// (1 per hit is the minimum — no speculation failures).
	Retries int
	// Hits is the number of extensions performed.
	Hits int
	// CellWork is the summed banded DP area (band x reference rows),
	// the iso-area cost of the policy.
	CellWork int64
}

// BandPressure quantifies the paper's Sec. IV-C SeedEx observation:
// scaling the speculative band to the hit's length reduces the
// speculation-and-test retries compared to one fixed band for all
// hits. Three policies run the same extensions: a narrow fixed band,
// a wide fixed band, and a hit-length-scaled band.
func BandPressure(env *Env, nReads int) []BandRow {
	if nReads > len(env.Reads) {
		nReads = len(env.Reads)
	}
	sc := env.Aligner.Options().Scoring
	type task struct {
		ref, query []byte
		initScore  int
		hitLen     int
	}
	var tasks []task
	for i := 0; i < nReads; i++ {
		hits, _ := env.Aligner.SeedAndChain(i, env.Reads[i])
		for _, h := range hits {
			oriented := pipeline.Orient(env.Reads[i], h.Rev)
			_, lq, rr, rq := env.Aligner.ExtendDims(h)
			_ = lq
			if rq == 0 || rr == 0 {
				continue
			}
			seedRefEnd := h.RefPos + h.SchedLen()
			tk := task{
				ref:       env.Aligner.Ref()[seedRefEnd : seedRefEnd+rr],
				query:     oriented[h.ReadEnd : h.ReadEnd+rq],
				initScore: h.SeedScore,
				hitLen:    h.SchedLen(),
			}
			// Speculation targets viable extensions: hopeless candidates
			// are killed by the z-drop heuristic before the banded fill
			// and never exercise the speculate-and-test loop.
			full, _, _, _ := align.Extend(tk.ref, tk.query, sc, tk.initScore, -1)
			if full-tk.initScore < len(tk.query)/2 {
				continue
			}
			tasks = append(tasks, tk)
		}
	}

	policies := []struct {
		name string
		band func(hitLen int) int
	}{
		{"fixed narrow (band 2)", func(int) int { return 2 }},
		{"fixed wide (band 32)", func(int) int { return 32 }},
		{"scaled to hit length (len/8, min 2)", func(l int) int {
			b := l / 8
			if b < 2 {
				b = 2
			}
			return b
		}},
	}
	var rows []BandRow
	for _, p := range policies {
		row := BandRow{Policy: p.name, Hits: len(tasks)}
		for _, tk := range tasks {
			_, _, _, bands := align.SpeculativeExtend(tk.ref, tk.query, sc, tk.initScore, p.band(tk.hitLen))
			row.Retries += len(bands)
			for _, b := range bands {
				row.CellWork += int64((2*b + 1)) * int64(len(tk.ref))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatBandPressure renders the comparison.
func FormatBandPressure(rows []BandRow) string {
	var b strings.Builder
	b.WriteString("Sec. IV-C — SeedEx band speculation pressure by initial-band policy\n")
	for _, r := range rows {
		avg := float64(r.Retries) / float64(max1(r.Hits))
		fmt.Fprintf(&b, "  %-38s %d extensions, %.2f attempts/hit, %d banded cells\n",
			r.Policy, r.Hits, avg, r.CellWork)
	}
	return b.String()
}

func max1(n int) int {
	if n == 0 {
		return 1
	}
	return n
}
