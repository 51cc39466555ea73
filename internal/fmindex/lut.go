package fmindex

import "fmt"

// k-mer LUT jump-start: a precomputed table of bi-intervals for every
// k-length pattern, so a backward/forward search whose pattern is at
// least k bases long starts from the table entry instead of performing
// its first k-1 extension steps. This is the ERT/BWA-MEM2 "kmer skip
// table" idea: the table is built once per index (O(4^k) bounded by
// the non-empty suffix trie, i.e. O(text) for the adaptive default k)
// and is read-only afterwards, so shards and worker goroutines share
// it freely.
//
// The jump is a pure software shortcut: the modeled hardware still
// performs the k-1 extension steps it skips, so every lookup charges
// the exact Stats the stepwise search would (2 Occ block reads per
// skipped step). Simulated cycle counts — and therefore Reports — are
// byte-identical with the LUT on or off.
//
// Entries under a pattern prefix that does not occur in the text hold
// the prefix's (empty) interval rather than the stepwise chain's empty
// interval: extensions of an empty interval stay empty and are never
// emitted or located, so the difference is unobservable; pruning those
// subtrees is what keeps construction O(text).

// maxLUTK bounds the table size: 4^13 entries of 32 bytes would be
// 2 GiB. The paper-scale sweet spot is k about 10-12.
const maxLUTK = 12

// KmerLUT is the jump-start table over one BiIndex. Immutable after
// construction; safe for concurrent readers.
type KmerLUT struct {
	k   int
	ivs []BiInterval
}

// K returns the table's pattern length.
func (l *KmerLUT) K() int { return l.k }

// Entries returns the table size (4^k).
func (l *KmerLUT) Entries() int { return len(l.ivs) }

// DefaultLUTK picks the jump length for an index of textLen bases: the
// largest k with 4^k <= textLen, capped at maxLUTK, so the table is at
// most about as large as the index it accelerates. Texts too short for
// even k=2 get 0 (LUT disabled).
func DefaultLUTK(textLen int) int {
	k := 0
	for k < maxLUTK && textLen>>(2*(k+1)) > 0 {
		k++
	}
	if k < 2 {
		return 0
	}
	return k
}

// BuildKmerLUT enumerates every k-length pattern's bi-interval by
// depth-first right extension, pruning subtrees below patterns that do
// not occur. k is validated against the table and index bounds; reads
// shorter than k are handled at query time by falling back to plain
// stepwise search, not here.
func BuildKmerLUT(b *BiIndex, k int) (*KmerLUT, error) {
	if k < 1 {
		return nil, fmt.Errorf("fmindex: LUT k %d < 1", k)
	}
	if k > maxLUTK {
		return nil, fmt.Errorf("fmindex: LUT k %d exceeds table bound %d", k, maxLUTK)
	}
	if k > b.TextLen() {
		return nil, fmt.Errorf("fmindex: LUT k %d exceeds text length %d", k, b.TextLen())
	}
	l := &KmerLUT{k: k, ivs: make([]BiInterval, 1<<(2*k))}
	var fill func(iv BiInterval, depth, code int)
	fill = func(iv BiInterval, depth, code int) {
		if depth == k {
			l.ivs[code] = iv
			return
		}
		if iv.Empty() {
			// Extensions of an empty interval are empty; stamp the whole
			// subtree with the prefix's interval (see package comment).
			lo := code << (2 * (k - depth))
			hi := (code + 1) << (2 * (k - depth))
			for i := lo; i < hi; i++ {
				l.ivs[i] = iv
			}
			return
		}
		for a := 0; a < 4; a++ {
			fill(b.ExtendRight(iv, byte(a), nil), depth+1, code<<2|a)
		}
	}
	for a := 0; a < 4; a++ {
		fill(b.Single(byte(a)), 1, a)
	}
	return l, nil
}

// Interval returns the table entry for the pattern p[0:k]. The caller
// guarantees len(p) >= k.
func (l *KmerLUT) Interval(p []byte) BiInterval {
	code := 0
	for i := 0; i < l.k; i++ {
		code = code<<2 | int(p[i]&3)
	}
	return l.ivs[code]
}

// BuildLUT attaches a k-mer jump-start table to the index. k <= 0
// selects DefaultLUTK; a default of 0 (text too short) leaves the
// index without a table, which every consumer treats as "fall back to
// plain stepwise search".
func (b *BiIndex) BuildLUT(k int) error {
	if k <= 0 {
		k = DefaultLUTK(b.TextLen())
		if k == 0 {
			b.lut = nil
			return nil
		}
	}
	l, err := BuildKmerLUT(b, k)
	if err != nil {
		return err
	}
	b.lut = l
	return nil
}

// LUT returns the attached jump-start table, or nil.
func (b *BiIndex) LUT() *KmerLUT { return b.lut }

// lutFor returns the attached table when a search of pattern length
// minLen may use it: the table must exist, and the jump must not
// overrun the first possible emission point (k <= minLen keeps the
// skipped steps strictly inside the no-emission prefix). Reads shorter
// than k fall back at the call site.
func (b *BiIndex) lutFor(minLen int) *KmerLUT {
	if l := b.lut; l != nil && l.k <= minLen {
		return l
	}
	return nil
}

// CountLUT counts occurrences of p like Index.Count, jump-started from
// the k-mer table: the search loads the bi-interval of p's last k
// bases from the table (charging the exact Stats of the k-1 skipped
// extension steps) and left-extends stepwise from there. Patterns
// shorter than k — or an index without a table — fall back to plain
// backward search. Counts are identical on every path.
func (b *BiIndex) CountLUT(p []byte, st *Stats) int {
	l := b.lutFor(len(p))
	if l == nil {
		return b.fwd.Count(p, st)
	}
	iv := l.Interval(p[len(p)-l.k:])
	if st != nil {
		st.OccAccesses += 2 * (l.k - 1)
	}
	if iv.Empty() {
		return 0
	}
	for i := len(p) - l.k - 1; i >= 0; i-- {
		iv = b.ExtendLeft(iv, p[i], st)
		if iv.Empty() {
			return 0
		}
	}
	return iv.Size()
}
