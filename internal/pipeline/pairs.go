package pipeline

import (
	"math"

	"nvwa/internal/core"
	"nvwa/internal/seq"
)

// PairOptions controls paired-end resolution.
type PairOptions struct {
	// MinInsert and MaxInsert bound a proper pair's outer distance.
	MinInsert, MaxInsert int
	// ProperBonus is added to the pair score when both ends align in
	// proper FR orientation within the insert bounds, letting a
	// concordant placement win over a marginally higher-scoring
	// discordant one (BWA-MEM's pairing boost).
	ProperBonus int
}

// DefaultPairOptions matches a 350+-50 library.
func DefaultPairOptions() PairOptions {
	return PairOptions{MinInsert: 100, MaxInsert: 600, ProperBonus: 15}
}

// PairResult is the outcome of aligning one read pair.
type PairResult struct {
	R1, R2 Result
	// Proper reports FR orientation within the insert bounds.
	Proper bool
	// Insert is the observed outer fragment length (0 if not proper).
	Insert int
	// Score is the combined pair score including any proper bonus.
	Score int
}

// AlignPair aligns both ends and resolves the pair: among each end's
// extended hits, the combination maximising score-plus-concordance
// wins.
func (a *Aligner) AlignPair(idx int, r1, r2 seq.Seq, po PairOptions) PairResult {
	hits1, _ := a.SeedAndChain(2*idx, r1)
	hits2, _ := a.SeedAndChain(2*idx+1, r2)

	exts1 := a.ExtendAll(r1, hits1, nil)
	exts2 := a.ExtendAll(r2, hits2, nil)

	best := PairResult{R1: selectBest(hits1, exts1), R2: selectBest(hits2, exts2)}
	best.Score = best.R1.Score + best.R2.Score
	if len(exts1) == 0 || len(exts2) == 0 {
		return best
	}
	// Joint search over candidate placements (hit lists are small, the
	// product is bounded by MaxChains^2).
	bestJoint := math.MinInt
	var joint PairResult
	for i := range exts1 {
		e1 := exts1[i].Ext(hits1[i])
		for j := range exts2 {
			e2 := exts2[j].Ext(hits2[j])
			s := e1.Score + e2.Score
			proper := false
			insert := 0
			if e1.Rev != e2.Rev {
				// FR orientation: the forward read starts the fragment.
				lo, hi := e1.RefBeg, e2.RefEnd
				if e1.Rev {
					lo, hi = e2.RefBeg, e1.RefEnd
				}
				insert = hi - lo
				if insert >= po.MinInsert && insert <= po.MaxInsert {
					proper = true
					s += po.ProperBonus
				}
			}
			if s > bestJoint {
				bestJoint = s
				joint = PairResult{
					R1:     resultFrom(e1),
					R2:     resultFrom(e2),
					Proper: proper,
					Score:  e1.Score + e2.Score,
				}
				if proper {
					joint.Insert = insert
					joint.Score += po.ProperBonus
				}
			}
		}
	}
	joint.R1.Hits = len(exts1)
	joint.R2.Hits = len(exts2)
	return joint
}

func resultFrom(e core.Extension) Result {
	return Result{
		Found:  true,
		Score:  e.Score,
		RefBeg: e.RefBeg,
		RefEnd: e.RefEnd,
		Rev:    e.Rev,
	}
}
