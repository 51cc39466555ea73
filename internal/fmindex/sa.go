// Package fmindex implements the seeding substrate of NvWa's SUs: a
// suffix array, the Burrows-Wheeler transform, an FM-index with
// checkpointed occurrence tables (the paper instantiates its SUs with
// the bit-vectorised LFMapBit FM-index search of [65], occ interval
// 128), the FMD-index (one BWT of T·revcomp(T), extended on either
// side), and BWA-MEM-style SMEM seeding.
package fmindex

// BuildSuffixArray returns the suffix array of t terminated by a
// virtual sentinel that sorts before every base. The result has
// len(t)+1 entries; entry 0 is always len(t) (the sentinel suffix).
//
// The construction is prefix doubling with two-pass counting sort,
// O(n log n) time and O(n) additional memory, fast enough for the
// multi-megabase synthetic references used by the benchmarks. It
// starts from an 8-base counting sort (fewer on short texts), which
// saves the first three doubling rounds.
func BuildSuffixArray(t []byte) []int32 {
	n := len(t) + 1
	sa := make([]int32, n)
	rank := make([]int32, n)
	tmp := make([]int32, n)

	// Initial ranks: the first q symbols of each suffix as a base-5
	// number, the sentinel (and past it) 0 and each base its code+1.
	// q is the largest q <= 8 with 5^q <= n, so the buckets stay O(n)
	// while doubling starts at k = q instead of 1.
	q, buckets := 1, 5
	for q < 8 && buckets*5 <= n {
		q++
		buckets *= 5
	}
	top := int32(buckets / 5)
	rank[n-1] = 0
	for i := n - 2; i >= 0; i-- {
		rank[i] = (int32(t[i])+1)*top + rank[i+1]/5
	}

	// Initial sort by those keys (stable counting sort).
	cnt := make([]int32, max(n, buckets))
	for i := 0; i < n; i++ {
		cnt[rank[i]]++
	}
	var sum int32
	for i := 0; i < buckets; i++ {
		c := cnt[i]
		cnt[i] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		sa[cnt[rank[i]]] = int32(i)
		cnt[rank[i]]++
	}

	// Compact ranks to [0, n) so counting sorts can use n-sized buckets.
	rank2 := make([]int32, n)
	rank2[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank2[sa[i]] = rank2[sa[i-1]]
		if rank[sa[i]] != rank[sa[i-1]] {
			rank2[sa[i]]++
		}
	}
	rank, rank2 = rank2, rank
	for k := q; k < n; k <<= 1 {
		// Sort by second key (rank[i+k], 0 past the end). Suffixes
		// i >= n-k have second key 0 and must come first among equal
		// first keys; generate the order directly instead of sorting.
		idx := 0
		for i := n - k; i < n; i++ {
			tmp[idx] = int32(i)
			idx++
		}
		for _, s := range sa {
			if s >= int32(k) {
				tmp[idx] = s - int32(k)
				idx++
			}
		}
		// Stable counting sort by first key rank[i].
		for i := 0; i < n; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		var sum int32
		for i := 0; i < n; i++ {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for _, s := range tmp {
			sa[cnt[rank[s]]] = s
			cnt[rank[s]]++
		}
		// Recompute ranks.
		rank2[sa[0]] = 0
		var maxRank int32
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			same := rank[a] == rank[b]
			if same {
				var ka, kb int32
				if int(a)+k < n {
					ka = rank[a+int32(k)] + 1
				}
				if int(b)+k < n {
					kb = rank[b+int32(k)] + 1
				}
				same = ka == kb
			}
			if same {
				rank2[b] = maxRank
			} else {
				maxRank++
				rank2[b] = maxRank
			}
		}
		rank, rank2 = rank2, rank
		if int(maxRank) == n-1 {
			break
		}
	}
	return sa
}

// BWTFromSA derives the Burrows-Wheeler transform of t+sentinel from
// its suffix array. The returned bwt has len(t)+1 symbols where
// bwt[primary] is the sentinel (stored as 0; callers must treat index
// primary specially) and primary is its position.
func BWTFromSA(t []byte, sa []int32) (bwt []byte, primary int) {
	n := len(sa)
	bwt = make([]byte, n)
	primary = -1
	for i, s := range sa {
		if s == 0 {
			bwt[i] = 0 // sentinel placeholder
			primary = i
		} else {
			bwt[i] = t[s-1]
		}
	}
	return bwt, primary
}
