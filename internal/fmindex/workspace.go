package fmindex

// Workspace is a reusable, grow-only arena for the seeding hot path:
// the SMEM traversal's per-anchor entry stacks, the SMEM and seed
// output buffers, the sorted dedup key set, and the locate scratch.
// One Workspace per seeding unit (or per worker goroutine) makes
// steady-state seeding allocation-free: every slice grows to the
// high-water mark of the workload and is then reused.
//
// Slices returned by the *WS methods alias the Workspace and are valid
// until its next use. The zero value is ready to use. A Workspace is
// not safe for concurrent use.
type Workspace struct {
	curr, prev []smemEntry
	smems      []SMEM   // FindSMEMsWS/FindSMEMsReseedWS output
	extra      []SMEM   // re-seeding probe scratch
	repeat     []SMEM   // repeat-pass output
	keys       [][2]int // sorted [ReadBeg, ReadEnd) dedup set
	pos        []int    // LocateAllInto scratch
	seeds      []Seed   // SeedsWS output
}

// keyLess orders dedup keys lexicographically.
func keyLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// searchKey returns the insertion index of k in the sorted set keys.
func searchKey(keys [][2]int, k [2]int) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(keys[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasKey reports whether k is in the sorted set keys.
func hasKey(keys [][2]int, k [2]int) bool {
	i := searchKey(keys, k)
	return i < len(keys) && keys[i] == k
}

// addKey inserts k into the sorted set, reporting whether it was
// absent. Sets are tiny (a handful of SMEMs per read), so the
// insertion shift is cheaper than hashing every probe.
func addKey(keys [][2]int, k [2]int) ([][2]int, bool) {
	i := searchKey(keys, k)
	if i < len(keys) && keys[i] == k {
		return keys, false
	}
	keys = append(keys, [2]int{})
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys, true
}

// smem1ws is smem1 using the workspace's entry stacks.
func (b *BiIndex) smem1ws(ws *Workspace, r []byte, x, minIntv int, out *[]SMEM, st *Stats) int {
	ik := b.Single(r[x])
	if ik.Empty() {
		return x + 1
	}
	farEnd := x + 1
	curr, prev := ws.curr[:0], ws.prev[:0]

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
	prev, curr = curr, prev

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
	ws.curr, ws.prev = curr, prev // retain grown stacks
	return farEnd
}

// FindSMEMsWS enumerates all supermaximal exact matches of r with
// length >= minLen. The traversal is the two-phase forward/backward
// algorithm of BWA-MEM (bwt_smem1): from each anchor position, extend
// right recording every interval-size change, then sweep left,
// emitting a SMEM whenever the longest surviving match can no longer be
// extended. The returned slice aliases ws and is valid until its next
// use.
func (b *BiIndex) FindSMEMsWS(ws *Workspace, r []byte, minLen int, st *Stats) []SMEM {
	out := ws.smems[:0]
	x := 0
	for x < len(r) {
		x = b.smem1ws(ws, r, x, 1, &out, st)
	}
	// Filter by minimum seed length (done after traversal, as BWA does).
	keep := out[:0]
	for _, s := range out {
		if s.Len() >= minLen {
			keep = append(keep, s)
		}
	}
	ws.smems = out // retain full capacity; keep shares the backing array
	return keep
}

// FindSMEMsReseedWS runs the SMEM pass, then BWA-MEM's re-seeding
// (mem_reseed): every sufficiently long SMEM with few occurrences is
// re-searched from its midpoint requiring a larger occurrence count,
// which surfaces the shorter, more frequent sub-matches a supermaximal
// match hides (e.g. a read crossing a transposon fragment whose
// interior matches hundreds of loci). splitLen and splitWidth are
// BWA-MEM's -r parameters (1.5x min seed length and 10 by default).
// The dedup between the passes is the workspace's sorted key set:
// first-pass keys are inserted up front, every re-seeded match is
// admitted via a binary-search insert, and the emission order is that
// of the passes. The returned slice aliases ws; as a side effect ws
// holds the sorted key set of the returned SMEMs (SeedsWS reuses it
// for the repeat pass).
func (b *BiIndex) FindSMEMsReseedWS(ws *Workspace, r []byte, minLen, splitLen, splitWidth int, st *Stats) []SMEM {
	out := b.FindSMEMsWS(ws, r, minLen, st)
	nFirst := len(out)
	keys := ws.keys[:0]
	for _, s := range out {
		keys, _ = addKey(keys, [2]int{s.ReadBeg, s.ReadEnd})
	}
	for idx := 0; idx < nFirst; idx++ {
		s := out[idx]
		if s.Len() < splitLen || s.Iv.Size() > splitWidth {
			continue
		}
		mid := (s.ReadBeg + s.ReadEnd) / 2
		extra := ws.extra[:0]
		// smem1ws only touches ws.curr/ws.prev, never ws.extra/ws.smems.
		b.smem1ws(ws, r, mid, s.Iv.Size()+1, &extra, st)
		ws.extra = extra
		for _, e := range extra {
			if e.Len() < minLen {
				continue
			}
			var added bool
			keys, added = addKey(keys, [2]int{e.ReadBeg, e.ReadEnd})
			if added {
				out = append(out, e)
			}
		}
	}
	ws.keys = keys
	ws.smems = out
	return out
}

// RepeatSeedsWS is BWA-MEM's third seeding pass (bwt_seed_strategy1,
// LAST-like): scanning left to right, it emits the shortest match of
// length >= minLen that still has at least maxIntv occurrences, then
// restarts after it. This is the pass that surfaces the numerous short
// seeds inside high-copy repeats, which neither the SMEM pass nor
// re-seeding reports (a supermaximal match hides them and re-seeding
// only probes one midpoint). The returned slice aliases ws and is valid
// until its next use.
func (b *BiIndex) RepeatSeedsWS(ws *Workspace, r []byte, minLen, maxIntv int, st *Stats) []SMEM {
	out := ws.repeat[:0]
	x := 0
	for x+minLen <= len(r) {
		ik := b.Single(r[x])
		if ik.Empty() {
			x++
			continue
		}
		next := len(r)
		for i := x + 1; i < len(r); i++ {
			ok := b.ExtendRight(ik, r[i], st)
			if ok.Size() < maxIntv && i-x >= minLen {
				if ik.Size() > 0 {
					out = append(out, SMEM{ReadBeg: x, ReadEnd: i, Iv: ik})
				}
				next = i + 1
				break
			}
			ik = ok
		}
		x = next
	}
	ws.repeat = out
	return out
}

// LocateAllInto is LocateAll appending into dst instead of allocating.
func (x *Index) LocateAllInto(dst []int, iv Interval, max int, st *Stats) []int {
	n := iv.Size()
	if max > 0 && n > max {
		n = max
	}
	for i := iv.Lo; i < iv.Lo+n; i++ {
		dst = append(dst, x.Locate(i, st))
	}
	return dst
}

// SeedsWS is Seeds using ws: the three seeding passes, the dedup
// between them, and occurrence location all run out of the workspace,
// so a warm Workspace performs zero heap allocations per read. The
// returned slice aliases ws and is valid until its next use.
func (s *Seeder) SeedsWS(ws *Workspace, r []byte, minLen, maxOcc, maxMemIntv int, st *Stats) []Seed {
	smems := s.bi.FindSMEMsReseedWS(ws, r, minLen, minLen*3/2, 10, st)
	if maxMemIntv > 0 {
		// ws.keys already holds the sorted key set of smems; the repeat
		// pass never emits duplicate keys itself (each emission advances
		// the scan anchor), so check-only lookups match the original
		// map semantics exactly.
		for _, m := range s.bi.RepeatSeedsWS(ws, r, minLen, maxMemIntv, st) {
			if !hasKey(ws.keys, [2]int{m.ReadBeg, m.ReadEnd}) {
				smems = append(smems, m)
			}
		}
		ws.smems = smems
	}
	out := ws.seeds[:0]
	for _, m := range smems {
		l := m.Len()
		pos := s.bi.idx.LocateAllInto(ws.pos[:0], m.Iv.Fwd, maxOcc, st)
		ws.pos = pos
		for _, p := range pos {
			switch {
			case p+l <= s.n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: p, Rev: false, Count: m.Iv.Size()})
			case p >= s.n:
				// Occurrence on the reverse-complement half: map back to
				// forward coordinates.
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: 2*s.n - p - l, Rev: true, Count: m.Iv.Size()})
			default:
				// Spans the T / revcomp(T) junction: artifact of the
				// concatenated index, discard.
			}
		}
	}
	ws.seeds = out
	return out
}
