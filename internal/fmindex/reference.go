package fmindex

// Reference implementations of the seeding pipeline, retained verbatim
// from before the Workspace fast path: per-call allocation of the
// traversal stacks and output slices, map-based dedup between passes,
// and no k-mer LUT jump-start. They share the index's one rank path
// with the production code, so they pin the workspace, sorted-sweep
// dedup and LUT logic, not the rank kernel. They are plain functions:
// the differential-test oracles for the *WS variants and the "before"
// side of the fmindex.Seeds/101bp kernel benchmark. Simulation code
// must not call them.

// findSMEMsReference is the original FindSMEMs: allocating traversal,
// post-filter by minimum length.
func (b *BiIndex) findSMEMsReference(r []byte, minLen int, st *Stats) []SMEM {
	var out []SMEM
	x := 0
	for x < len(r) {
		x = b.smem1(r, x, 1, &out, st)
	}
	keep := out[:0]
	for _, s := range out {
		if s.Len() >= minLen {
			keep = append(keep, s)
		}
	}
	return keep
}

// findSMEMsReseedReference is the original FindSMEMsReseed with its
// map-based dedup.
func (b *BiIndex) findSMEMsReseedReference(r []byte, minLen, splitLen, splitWidth int, st *Stats) []SMEM {
	out := b.findSMEMsReference(r, minLen, st)
	first := out
	seen := make(map[[2]int]bool, len(out))
	for _, s := range out {
		seen[[2]int{s.ReadBeg, s.ReadEnd}] = true
	}
	for _, s := range first {
		if s.Len() < splitLen || s.Iv.Size() > splitWidth {
			continue
		}
		mid := (s.ReadBeg + s.ReadEnd) / 2
		var extra []SMEM
		b.smem1(r, mid, s.Iv.Size()+1, &extra, st)
		for _, e := range extra {
			key := [2]int{e.ReadBeg, e.ReadEnd}
			if e.Len() >= minLen && !seen[key] {
				seen[key] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// repeatSeedsReference is the original RepeatSeeds (fresh output slice
// per call).
func (b *BiIndex) repeatSeedsReference(r []byte, minLen, maxIntv int, st *Stats) []SMEM {
	var out []SMEM
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
	return out
}

// SeedsReference is the original three-pass Seeds: allocating seeding
// passes, map-based dedup, and per-SMEM LocateAll allocations. It is
// exported for the kernel benchmark harness (the "before" side of the
// fmindex.Seeds/101bp row in BENCH_kernels.json) and the equivalence
// tests in other packages.
func (s *Seeder) SeedsReference(r []byte, minLen, maxOcc, maxMemIntv int, st *Stats) []Seed {
	smems := s.bi.findSMEMsReseedReference(r, minLen, minLen*3/2, 10, st)
	if maxMemIntv > 0 {
		seen := make(map[[2]int]bool, len(smems))
		for _, m := range smems {
			seen[[2]int{m.ReadBeg, m.ReadEnd}] = true
		}
		for _, m := range s.bi.repeatSeedsReference(r, minLen, maxMemIntv, st) {
			if !seen[[2]int{m.ReadBeg, m.ReadEnd}] {
				smems = append(smems, m)
			}
		}
	}
	var out []Seed
	for _, m := range smems {
		l := m.Len()
		for _, pos := range s.bi.fwd.LocateAll(m.Iv.Fwd, maxOcc, st) {
			switch {
			case pos+l <= s.n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: pos, Rev: false, Count: m.Iv.Size()})
			case pos >= s.n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: 2*s.n - pos - l, Rev: true, Count: m.Iv.Size()})
			default:
			}
		}
	}
	return out
}
