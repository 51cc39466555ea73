package fmindex

// SMEM is a supermaximal exact match: the read substring [ReadBeg,
// ReadEnd) occurs in the text and is not contained in any longer match
// that also occurs. Iv is the match's bi-interval in the index.
type SMEM struct {
	ReadBeg, ReadEnd int
	Iv               BiInterval
}

// Len returns the match length in bases.
func (s SMEM) Len() int { return s.ReadEnd - s.ReadBeg }

type smemEntry struct {
	iv  BiInterval
	end int
}

// smem1 finds all SMEMs containing position x, appends them to out in
// order of decreasing end, and returns the next anchor position (the
// end of the longest match containing x).
func (b *BiIndex) smem1(r []byte, x, minIntv int, out *[]SMEM, st *Stats) int {
	ik := b.Single(r[x])
	if ik.Empty() {
		return x + 1
	}
	farEnd := x + 1
	var curr, prev []smemEntry

	// Forward phase: extend right, recording the interval each time the
	// occurrence count drops.
	for i := x + 1; i < len(r); i++ {
		ok := b.ExtendRight(ik, r[i], st)
		if ok.Size() != ik.Size() {
			curr = append(curr, smemEntry{ik, i})
			if ok.Size() < minIntv {
				break
			}
		}
		ik = ok
		farEnd = i + 1
	}
	if len(curr) == 0 || curr[len(curr)-1].end != farEnd {
		curr = append(curr, smemEntry{ik, farEnd})
	}
	// Reverse so longer matches (larger end, smaller interval) come
	// first in the backward sweep.
	for i, j := 0, len(curr)-1; i < j; i, j = i+1, j-1 {
		curr[i], curr[j] = curr[j], curr[i]
	}
	prev, curr = curr, prev[:0]

	// Backward phase: sweep left; when the longest surviving match can
	// no longer be extended it is supermaximal. lastBeg dedups outputs
	// within this invocation only.
	lastBeg := len(r) + 1
	for i := x - 1; i >= -1; i-- {
		c := -1
		if i >= 0 {
			c = int(r[i])
		}
		curr = curr[:0]
		for _, p := range prev {
			var ok BiInterval
			if c >= 0 {
				ok = b.ExtendLeft(p.iv, byte(c), st)
			}
			if c < 0 || ok.Size() < minIntv {
				if len(curr) == 0 && i+1 < lastBeg {
					*out = append(*out, SMEM{ReadBeg: i + 1, ReadEnd: p.end, Iv: p.iv})
					lastBeg = i + 1
				}
			} else if len(curr) == 0 || ok.Size() != curr[len(curr)-1].iv.Size() {
				curr = append(curr, smemEntry{ok, p.end})
			}
		}
		if len(curr) == 0 {
			break
		}
		prev, curr = curr, prev
	}
	return farEnd
}
