// Package pipeline implements the software seed-and-extend read
// aligner the accelerator model is measured against: SMEM seeding on
// the FM-index, seed filtering and chaining, banded affine-gap seed
// extension, and best-result selection — the four steps of the paper's
// Fig. 1, with BWA-MEM's scoring scheme.
//
// It serves three roles: the measured CPU baseline, the Fig. 2
// per-read phase profiler, and the accuracy oracle the accelerator's
// functional output is compared against (the paper's
// no-loss-of-accuracy property). The accelerator's SUs and EUs call
// into the same SeedAndChain / ExtendHit functions, so hardware and
// software results are identical by construction.
package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"nvwa/internal/align"
	"nvwa/internal/core"
	"nvwa/internal/fmindex"
	"nvwa/internal/seq"
)

// Options tunes the aligner.
type Options struct {
	// MinSeedLen is the minimum SMEM length (BWA-MEM uses 19 on the
	// 3 Gbp human genome; the default here is 15, scaled to the
	// multi-megabase synthetic references where a 15-mer is still
	// highly specific).
	MinSeedLen int
	// MaxOcc caps located occurrences per SMEM.
	MaxOcc int
	// MaxMemIntv is the occurrence threshold of the LAST-like third
	// seeding pass (BWA-MEM max_mem_intv, scaled to the synthetic
	// reference size; 0 disables the pass).
	MaxMemIntv int
	// ChainBand is the diagonal tolerance when chaining seeds.
	ChainBand int
	// MaxChains caps the chains extended per read.
	MaxChains int
	// ExtBand is the extra reference slack given to each extension.
	ExtBand int
	// MinChainWeight drops chains whose seed coverage is below this.
	MinChainWeight int
	// ZDrop is BWA-MEM's z-drop extension-termination threshold
	// (default 100); negative disables it.
	ZDrop int
	// Scoring is the alignment scoring scheme.
	Scoring align.Scoring
}

// DefaultOptions mirrors BWA-MEM defaults where they exist.
func DefaultOptions() Options {
	return Options{
		MinSeedLen:     15,
		MaxOcc:         16,
		MaxMemIntv:     8,
		ChainBand:      12,
		MaxChains:      12,
		ExtBand:        8,
		MinChainWeight: 15,
		ZDrop:          50,
		Scoring:        align.BWAMEM(),
	}
}

// Aligner aligns reads against one indexed reference.
type Aligner struct {
	ref    seq.Seq
	seeder *fmindex.Seeder
	opts   Options

	// scratch pools per-goroutine kernel workspaces: the concurrent
	// memo builder and the parallel experiment engine call
	// SeedAndChain/ExtendHitCost from many goroutines over one shared
	// Aligner, so the zero-alloc workspaces cannot live on the Aligner
	// itself.
	scratch sync.Pool
}

// alnScratch bundles every reusable kernel workspace one alignment
// call needs, so a pooled Get covers seeding, chaining, and both
// flank extensions.
type alnScratch struct {
	ws         fmindex.Workspace
	dp         align.Scratch
	os         []oseed
	chains     []chain
	qrev, rrev seq.Seq
}

func (a *Aligner) getScratch() *alnScratch {
	if s, ok := a.scratch.Get().(*alnScratch); ok {
		return s
	}
	return &alnScratch{}
}

func (a *Aligner) putScratch(s *alnScratch) { a.scratch.Put(s) }

// reverseInto writes reverse(s) into *dst (grown as needed) and
// returns the filled prefix.
func reverseInto(dst *seq.Seq, s seq.Seq) seq.Seq {
	if cap(*dst) < len(s) {
		*dst = make(seq.Seq, len(s))
	}
	out := (*dst)[:len(s)]
	for i, b := range s {
		out[len(s)-1-i] = b
	}
	return out
}

// New indexes the reference and returns an aligner.
func New(ref seq.Seq, opts Options) *Aligner {
	return &Aligner{ref: ref, seeder: fmindex.NewSeeder(ref), opts: opts}
}

// Ref returns the reference sequence.
func (a *Aligner) Ref() seq.Seq { return a.ref }

// Seeder exposes the underlying FM-index seeder (the SU model shares it).
func (a *Aligner) Seeder() *fmindex.Seeder { return a.seeder }

// Options returns the aligner's options.
func (a *Aligner) Options() Options { return a.opts }

// Orient returns the read view the hit's coordinates refer to: the
// read itself for forward hits, its reverse complement for reverse
// hits.
func Orient(read seq.Seq, rev bool) seq.Seq {
	if rev {
		return read.RevComp()
	}
	return read
}

// oseed is a seed in oriented-read coordinates, the chaining input.
type oseed struct {
	rev      bool
	beg, end int // oriented read coords
	refPos   int
}

// chain is one diagonal chain of seeds under construction.
type chain struct {
	rev      bool
	beg, end int
	refBeg   int
	diag     int
	weight   int
}

// SeedAndChain performs the seeding phase for one read: SMEM seeding,
// short-seed filtering, and diagonal chaining (Fig. 1 steps 1-2). It
// returns one Hit per surviving chain with coordinates on the oriented
// read, plus the index traffic the search generated (the SU cycle
// model's input). The returned hits are freshly allocated (callers
// retain them); all intermediate buffers come from the pooled scratch.
func (a *Aligner) SeedAndChain(readIdx int, read seq.Seq) ([]core.Hit, fmindex.Stats) {
	scr := a.getScratch()
	defer a.putScratch(scr)
	var st fmindex.Stats
	seeds := a.seeder.SeedsWS(&scr.ws, read, a.opts.MinSeedLen, a.opts.MaxOcc, a.opts.MaxMemIntv, &st)
	if len(seeds) == 0 {
		return nil, st
	}
	L := len(read)

	// Convert to oriented-read coordinates so chaining is uniform:
	// a seed read[b,e) on the reverse strand covers oriented read
	// [L-e, L-b) and matches the reference forward at RefPos.
	if cap(scr.os) < len(seeds) {
		scr.os = make([]oseed, len(seeds))
	}
	os := scr.os[:len(seeds)]
	for i, s := range seeds {
		if s.Rev {
			os[i] = oseed{rev: true, beg: L - s.ReadEnd, end: L - s.ReadBeg, refPos: s.RefPos}
		} else {
			os[i] = oseed{rev: false, beg: s.ReadBeg, end: s.ReadEnd, refPos: s.RefPos}
		}
	}
	// Sort by (strand, diagonal, read begin); seeds on the same
	// diagonal (within ChainBand) chain together.
	sort.Slice(os, func(i, j int) bool {
		if os[i].rev != os[j].rev {
			return !os[i].rev
		}
		di, dj := os[i].refPos-os[i].beg, os[j].refPos-os[j].beg
		if di != dj {
			return di < dj
		}
		return os[i].beg < os[j].beg
	})

	chains := scr.chains[:0]
	for _, s := range os {
		d := s.refPos - s.beg
		merged := false
		for ci := len(chains) - 1; ci >= 0; ci-- {
			c := &chains[ci]
			if c.rev != s.rev || d-c.diag > a.opts.ChainBand {
				break
			}
			// Same strand, compatible diagonal: merge if read intervals
			// touch or overlap.
			if s.beg <= c.end+a.opts.ChainBand && s.end >= c.beg-a.opts.ChainBand {
				add := s.end - s.beg
				if s.end <= c.end && s.beg >= c.beg {
					add = 0 // contained seed adds no coverage
				} else if s.beg < c.end && s.end > c.end {
					add = s.end - c.end
				} else if s.end > c.beg && s.beg < c.beg {
					add = c.beg - s.beg
				}
				if s.beg < c.beg {
					c.refBeg -= c.beg - s.beg
					c.beg = s.beg
				}
				if s.end > c.end {
					c.end = s.end
				}
				c.weight += add
				merged = true
				break
			}
		}
		if !merged {
			chains = append(chains, chain{rev: s.rev, beg: s.beg, end: s.end, refBeg: s.refPos, diag: d, weight: s.end - s.beg})
		}
	}

	scr.chains = chains // retain grown capacity for the next read

	// Filter: drop light chains, keep the MaxChains heaviest.
	sort.SliceStable(chains, func(i, j int) bool { return chains[i].weight > chains[j].weight })
	var hits []core.Hit
	for _, c := range chains {
		if c.weight < a.opts.MinChainWeight {
			continue
		}
		if len(hits) >= a.opts.MaxChains {
			break
		}
		hits = append(hits, core.Hit{
			ReadIdx:   readIdx,
			HitIdx:    len(hits),
			Rev:       c.rev,
			ReadBeg:   c.beg,
			ReadEnd:   c.end,
			RefPos:    c.refBeg,
			ReadLen:   L,
			SeedScore: c.weight * a.opts.Scoring.Match,
		})
	}
	return hits, st
}

// ExtendDims returns the (refLen, queryLen) of the left and right
// extension sub-tasks of a hit — the task scales the EU latency model
// charges Formula 3 for.
func (a *Aligner) ExtendDims(h core.Hit) (leftR, leftQ, rightR, rightQ int) {
	leftQ = h.ReadBeg
	rightQ = h.ReadLen - h.ReadEnd
	leftR = leftQ + a.opts.ExtBand
	if leftR > h.RefPos {
		leftR = h.RefPos
	}
	seedRefEnd := h.RefPos + h.SeedLen()
	rightR = rightQ + a.opts.ExtBand
	if seedRefEnd+rightR > len(a.ref) {
		rightR = len(a.ref) - seedRefEnd
	}
	if leftR < 0 {
		leftR = 0
	}
	if rightR < 0 {
		rightR = 0
	}
	return
}

// ExtendCost reports how much work a hit's extension actually
// performed before completing or z-dropping, in reference rows and
// query columns per flank. The extension unit's GACT-style cost model
// charges Formula 3 over these extents.
type ExtendCost struct {
	LeftRows, RightRows int // reference rows processed per flank
	LeftQ, RightQ       int // query extent per flank (capped by rows+band)
}

// TaskDims returns the charged task size: the systolic pass covers the
// seed span plus whatever each flank extension processed before
// terminating.
func (c ExtendCost) TaskDims(h core.Hit, band int) (refLen, queryLen int) {
	refLen = h.SeedLen() + c.LeftRows + c.RightRows
	queryLen = h.SeedLen() + c.LeftQ + c.RightQ
	return
}

// ExtendHit performs the seed-extension phase for one hit (Fig. 1
// step 3): the seed is extended leftwards and rightwards with
// affine-gap, z-drop-terminated DP over banded reference windows.
// oriented must be Orient(read, h.Rev).
func (a *Aligner) ExtendHit(oriented seq.Seq, h core.Hit) core.Extension {
	ext, _ := a.ExtendHitCost(oriented, h)
	return ext
}

// ExtendHitCost is ExtendHit plus the processed-extent accounting the
// EU cycle model consumes.
func (a *Aligner) ExtendHitCost(oriented seq.Seq, h core.Hit) (core.Extension, ExtendCost) {
	scr := a.getScratch()
	defer a.putScratch(scr)
	sc := a.opts.Scoring
	lr, lq, rr, rq := a.flanks(scr, oriented, h)

	score := h.SeedScore
	refBeg := h.RefPos
	refEnd := h.RefPos + h.SeedLen()
	readBeg := h.ReadBeg
	readEnd := h.ReadEnd
	var cost ExtendCost

	if lq != nil {
		s, rEnd, qEnd, rows := align.ExtendWithScratch(&scr.dp, lr, lq, sc, score, a.opts.ZDrop)
		score = s
		refBeg = h.RefPos - rEnd
		readBeg = h.ReadBeg - qEnd // reversed view: qEnd counts leftwards
		cost.LeftRows = rows
		cost.LeftQ = minInt(len(lq), rows+a.opts.ExtBand)
	}
	if rq != nil {
		s, rEnd, qEnd, rows := align.ExtendWithScratch(&scr.dp, rr, rq, sc, score, a.opts.ZDrop)
		score = s
		refEnd += rEnd
		readEnd = h.ReadEnd + qEnd
		cost.RightRows = rows
		cost.RightQ = minInt(len(rq), rows+a.opts.ExtBand)
	}
	return core.Extension{Hit: h, Score: score, RefBeg: refBeg, RefEnd: refEnd,
		ReadBeg: readBeg, ReadEnd: readEnd}, cost
}

// flanks returns the reference window and query of hit h's left and
// right extensions, nil where a flank has no extent. The left flank is
// reversed (into scr) so Extend anchors at the seed's left edge.
func (a *Aligner) flanks(scr *alnScratch, oriented seq.Seq, h core.Hit) (lr, lq, rr, rq seq.Seq) {
	leftR, leftQ, rightR, rightQ := a.ExtendDims(h)
	if leftQ > 0 && leftR > 0 {
		lq = reverseInto(&scr.qrev, oriented[h.ReadBeg-leftQ:h.ReadBeg])
		lr = reverseInto(&scr.rrev, a.ref[h.RefPos-leftR:h.RefPos])
	}
	if rightQ > 0 && rightR > 0 {
		refEnd := h.RefPos + h.SeedLen()
		rq = oriented[h.ReadEnd : h.ReadEnd+rightQ]
		rr = a.ref[refEnd : refEnd+rightR]
	}
	return lr, lq, rr, rq
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Result is the final alignment of one read (Fig. 1 step 4).
type Result struct {
	// Found reports whether any chain survived filtering.
	Found bool
	// Score is the best extension score.
	Score int
	// RefBeg is the alignment's reference start.
	RefBeg, RefEnd int
	// Rev marks a reverse-strand alignment.
	Rev bool
	// Hits is the number of chains extended.
	Hits int
}

// Align runs the full pipeline on one read.
func (a *Aligner) Align(readIdx int, read seq.Seq) Result {
	hits, _ := a.SeedAndChain(readIdx, read)
	return a.Finish(read, hits)
}

// AlignScores is Align plus the score of every extended hit, the input
// to mapping-quality estimation (best versus second-best).
func (a *Aligner) AlignScores(readIdx int, read seq.Seq) (Result, []int) {
	hits, _ := a.SeedAndChain(readIdx, read)
	var exts []core.Extension
	var fwd, rc seq.Seq
	scores := make([]int, 0, len(hits))
	for _, h := range hits {
		var oriented seq.Seq
		if h.Rev {
			if rc == nil {
				rc = read.RevComp()
			}
			oriented = rc
		} else {
			if fwd == nil {
				fwd = read
			}
			oriented = fwd
		}
		ext := a.ExtendHit(oriented, h)
		exts = append(exts, ext)
		scores = append(scores, ext.Score)
	}
	return Select(exts), scores
}

// Finish extends the given hits and selects the best result; split out
// so the accelerator model can reuse the selection logic on EU outputs.
func (a *Aligner) Finish(read seq.Seq, hits []core.Hit) Result {
	var res Result
	res.Hits = len(hits)
	var fwd, rc seq.Seq
	for _, h := range hits {
		var oriented seq.Seq
		if h.Rev {
			if rc == nil {
				rc = read.RevComp()
			}
			oriented = rc
		} else {
			if fwd == nil {
				fwd = read
			}
			oriented = fwd
		}
		ext := a.ExtendHit(oriented, h)
		if !res.Found || ext.Score > res.Score {
			res.Found = true
			res.Score = ext.Score
			res.RefBeg = ext.RefBeg
			res.RefEnd = ext.RefEnd
			res.Rev = h.Rev
		}
	}
	return res
}

// Cigar recomputes the base-level alignment path of a final result by
// running full Smith-Waterman with traceback over the result's
// reference window — the same post-processing real aligners use to
// emit SAM records. It returns the path with reference coordinates
// rebased to the full reference.
func (a *Aligner) Cigar(read seq.Seq, res Result) (align.Result, error) {
	if !res.Found {
		return align.Result{}, fmt.Errorf("pipeline: no alignment to trace back")
	}
	lo, hi := res.RefBeg-a.opts.ExtBand, res.RefEnd+a.opts.ExtBand
	if lo < 0 {
		lo = 0
	}
	if hi > len(a.ref) {
		hi = len(a.ref)
	}
	oriented := Orient(read, res.Rev)
	out := align.Local(a.ref[lo:hi], oriented, a.opts.Scoring)
	out.RefBeg += lo
	out.RefEnd += lo
	return out, nil
}

// Select picks the best extension from EU outputs, mirroring Finish:
// ties break toward the lowest hit index, so the outcome does not
// depend on the order extensions complete in.
func Select(exts []core.Extension) Result {
	var res Result
	res.Hits = len(exts)
	bestHit := -1
	for _, ext := range exts {
		if !res.Found || ext.Score > res.Score || (ext.Score == res.Score && ext.HitIdx < bestHit) {
			res.Found = true
			res.Score = ext.Score
			res.RefBeg = ext.RefBeg
			res.RefEnd = ext.RefEnd
			res.Rev = ext.Rev
			bestHit = ext.HitIdx
		}
	}
	return res
}
