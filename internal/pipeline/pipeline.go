// Package pipeline implements the software seed-and-extend read
// aligner the accelerator model is measured against: SMEM seeding on
// the FM-index, seed filtering and chaining, banded affine-gap seed
// extension, and best-result selection — the four steps of the paper's
// Fig. 1, with BWA-MEM's scoring scheme.
//
// It serves three roles: the measured CPU baseline, the Fig. 2
// per-read phase profiler, and the accuracy oracle the accelerator's
// functional output is compared against (the paper's
// no-loss-of-accuracy property). The accelerator fills its per-read
// records with the same SeedAndChain / ExtendAll functions, so hardware
// and software results are identical by construction.
package pipeline

import (
	"cmp"
	"fmt"
	"slices"
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

// ExtendBand is BWA-MEM's extension band -w: the extension DP scores
// only cells within ExtendBand diagonals of the seed's, rerunning once
// at twice the width when the best cells reach 3/4 of it.
const ExtendBand = 100

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
	// band is the extension DP's band, ExtendBand; the package's
	// tests narrow or disable it to drive the 2w retry end to end.
	band int

	// scratch pools per-goroutine kernel workspaces: the concurrent
	// memo builder and the parallel experiment engine call
	// SeedAndChain/ExtendAll from many goroutines over one shared
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
	rc         seq.Seq    // the read's reverse complement
	exts       []Extended // Finish's records
	scores     []int      // alignMapQ's extension scores
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

// revComp returns read's reverse complement, built into s.rc.
func (s *alnScratch) revComp(read seq.Seq) seq.Seq {
	rc := reverseInto(&s.rc, read)
	for i, b := range rc {
		rc[i] = seq.Complement(b)
	}
	return rc
}

// New indexes the reference and returns an aligner.
func New(ref seq.Seq, opts Options) *Aligner {
	return &Aligner{ref: ref, seeder: fmindex.NewSeeder(ref), opts: opts, band: ExtendBand}
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
	slices.SortFunc(os, func(x, y oseed) int {
		if x.rev != y.rev {
			if x.rev {
				return 1
			}
			return -1
		}
		if c := cmp.Compare(x.refPos-x.beg, y.refPos-y.beg); c != 0 {
			return c
		}
		return cmp.Compare(x.beg, y.beg)
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

	// Filter: drop light chains, keep the MaxChains heaviest. The
	// hits are sized once, so the only allocation is the one returned.
	slices.SortStableFunc(chains, func(x, y chain) int { return cmp.Compare(y.weight, x.weight) })
	kept := 0
	for _, c := range chains {
		if c.weight >= a.opts.MinChainWeight {
			kept++
		}
	}
	var hits []core.Hit
	if k := min(kept, a.opts.MaxChains); k > 0 {
		hits = make([]core.Hit, 0, k)
	}
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
	seedRefEnd := h.RefPos + h.SchedLen()
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
func (c ExtendCost) TaskDims(h core.Hit) (refLen, queryLen int) {
	refLen = h.SchedLen() + c.LeftRows + c.RightRows
	queryLen = h.SchedLen() + c.LeftQ + c.RightQ
	return
}

// Extended is one hit's extension record, the EU output of the Table
// III data interface in compact form: the final score, how far the
// alignment reaches beyond the seed on each side, and the DP extents
// each flank processed (ExtendCost). Every field is bounded by a flank
// window (read length + ExtBand) or by the read's best score, so int32
// holds it on any reference.
type Extended struct {
	Score int32
	// LeftRef, LeftRead, RightRef and RightRead are the aligned extents
	// beyond the seed's left and right edges, on the reference and on
	// the oriented read.
	LeftRef, LeftRead, RightRef, RightRead int32
	// LeftRows, LeftQ, RightRows and RightQ are ExtendCost's extents.
	LeftRows, LeftQ, RightRows, RightQ int32
}

// Ext expands the record of hit h into the full extension result.
func (e Extended) Ext(h core.Hit) core.Extension {
	return core.Extension{Hit: h, Score: int(e.Score),
		RefBeg: h.RefPos - int(e.LeftRef), RefEnd: h.RefPos + h.SchedLen() + int(e.RightRef),
		ReadBeg: h.ReadBeg - int(e.LeftRead), ReadEnd: h.ReadEnd + int(e.RightRead)}
}

// Cost returns the processed extents the EU cycle model charges.
func (e Extended) Cost() ExtendCost {
	return ExtendCost{LeftRows: int(e.LeftRows), RightRows: int(e.RightRows),
		LeftQ: int(e.LeftQ), RightQ: int(e.RightQ)}
}

// ExtendAll performs the seed-extension phase for one read (Fig. 1
// step 3): each hit's seed is extended leftwards and rightwards with
// affine-gap, z-drop-terminated DP over banded reference windows, and
// one Extended per hit is appended to dst in hit order. The read's
// reverse complement is built once, into pooled scratch, so a warm
// call into a dst with room for every hit allocates nothing.
func (a *Aligner) ExtendAll(read seq.Seq, hits []core.Hit, dst []Extended) []Extended {
	scr := a.getScratch()
	defer a.putScratch(scr)
	return a.extendAll(scr, read, hits, dst)
}

func (a *Aligner) extendAll(scr *alnScratch, read seq.Seq, hits []core.Hit, dst []Extended) []Extended {
	dst = slices.Grow(dst, len(hits))
	var rc seq.Seq
	for _, h := range hits {
		oriented := read
		if h.Rev {
			if rc == nil {
				rc = scr.revComp(read)
			}
			oriented = rc
		}
		dst = append(dst, a.extendHit(scr, oriented, h))
	}
	return dst
}

// ExtendHitCost extends one hit on its oriented read view
// (Orient(read, h.Rev)) and returns the expanded record: the extension
// result and the processed extents the EU cycle model charges.
func (a *Aligner) ExtendHitCost(oriented seq.Seq, h core.Hit) (core.Extension, ExtendCost) {
	scr := a.getScratch()
	defer a.putScratch(scr)
	e := a.extendHit(scr, oriented, h)
	return e.Ext(h), e.Cost()
}

// extendHit runs both flank extensions of h on its oriented read view.
func (a *Aligner) extendHit(scr *alnScratch, oriented seq.Seq, h core.Hit) Extended {
	sc := a.opts.Scoring
	lr, lq, rr, rq := a.flanks(scr, oriented, h)
	score := h.SeedScore
	var e Extended
	if lq != nil {
		s, rEnd, qEnd, rows := align.ExtendWithScratch(&scr.dp, lr, lq, sc, score, a.opts.ZDrop, a.band)
		score = s
		// The left flank runs on reversed views: its extents count
		// leftwards from the seed.
		e.LeftRef, e.LeftRead, e.LeftRows = int32(rEnd), int32(qEnd), int32(rows)
		e.LeftQ = int32(min(len(lq), rows+a.opts.ExtBand))
	}
	if rq != nil {
		s, rEnd, qEnd, rows := align.ExtendWithScratch(&scr.dp, rr, rq, sc, score, a.opts.ZDrop, a.band)
		score = s
		e.RightRef, e.RightRead, e.RightRows = int32(rEnd), int32(qEnd), int32(rows)
		e.RightQ = int32(min(len(rq), rows+a.opts.ExtBand))
	}
	e.Score = int32(score)
	return e
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
		refEnd := h.RefPos + h.SchedLen()
		rq = oriented[h.ReadEnd : h.ReadEnd+rightQ]
		rr = a.ref[refEnd : refEnd+rightR]
	}
	return lr, lq, rr, rq
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

// alignMapQ is Align plus the read's mapping quality, estimated from
// the best and second-best scores of the same pass's extensions.
func (a *Aligner) alignMapQ(readIdx int, read seq.Seq) (Result, int) {
	hits, _ := a.SeedAndChain(readIdx, read)
	scr := a.getScratch()
	defer a.putScratch(scr)
	scr.exts = a.extendAll(scr, read, hits, scr.exts[:0])
	scr.scores = scr.scores[:0]
	for _, e := range scr.exts {
		scr.scores = append(scr.scores, int(e.Score))
	}
	best, second := SecondBest(scr.scores)
	return selectBest(hits, scr.exts), MapQ(best, second, len(scr.scores), a.opts.Scoring.Match)
}

// Finish extends the given hits and selects the best result; split out
// so tests can compare the accelerator's per-read results against the
// software result for any front end's hits.
func (a *Aligner) Finish(read seq.Seq, hits []core.Hit) Result {
	scr := a.getScratch()
	defer a.putScratch(scr)
	scr.exts = a.extendAll(scr, read, hits, scr.exts[:0])
	return selectBest(hits, scr.exts)
}

// Cigar recomputes the base-level alignment path of a final result by
// running full Smith-Waterman with traceback over the result's
// reference window — the same post-processing real aligners use to
// emit SAM records. It returns the path with reference coordinates
// rebased to the full reference. The DP runs in pooled scratch; only
// the returned CIGAR is allocated.
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
	scr := a.getScratch()
	defer a.putScratch(scr)
	oriented := read
	if res.Rev {
		oriented = scr.revComp(read)
	}
	out := align.LocalWithScratch(&scr.dp, a.ref[lo:hi], oriented, a.opts.Scoring)
	out.Cigar = slices.Clone(out.Cigar) // it aliases scr.dp
	out.RefBeg += lo
	out.RefEnd += lo
	return out, nil
}

// selectBest picks a read's final result from its extension records
// (Fig. 1 step 4): the top score, ties broken toward the lowest hit
// index, so the outcome does not depend on the order extensions
// complete in — the rule the accelerator applies to EU outputs.
func selectBest(hits []core.Hit, exts []Extended) Result {
	best := -1
	for i, e := range exts {
		if best < 0 || e.Score > exts[best].Score {
			best = i
		}
	}
	if best < 0 {
		return Result{Hits: len(hits)}
	}
	e := exts[best].Ext(hits[best])
	return Result{Found: true, Score: e.Score, RefBeg: e.RefBeg, RefEnd: e.RefEnd, Rev: e.Rev, Hits: len(hits)}
}
