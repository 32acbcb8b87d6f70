// Package editdist implements the Levenshtein edit distance kernel used by
// LBE's peptide grouping (Algorithm 1 of the paper).
//
// The grouping loop asks, for every peptide, whether its distance to the
// running group seed is within a cutoff. Within answers with one kernel
// per length class: Myers' bit-parallel algorithm (in Hyyrö's
// global-distance form) when the shorter string fits in one 64-bit word —
// every digested peptide does — and the banded dynamic program with early
// exit (Ukkonen's cutoff) beyond that. Naive, the textbook dynamic
// program, is the reference both are tested against.
package editdist

// Naive computes the exact Levenshtein distance with the full O(len(a)*len(b))
// dynamic program. It is the reference implementation used by tests and by
// callers that need exact distances with no threshold.
func Naive(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		curr[0] = i
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := curr[j-1] + 1; d < m { // insert
				m = d
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[lb]
}

// Distance computes the Levenshtein distance between a and b, but gives up
// as soon as the distance provably exceeds maxDist: in that case it returns
// maxDist+1.
//
// When the shorter string has at most 64 bytes (wordBits), Distance runs
// Myers' bit-parallel algorithm: the shorter string's DP column is one
// machine word, so the cost is O(len(longer)) word operations whatever
// maxDist is, and nothing is allocated. Longer pairs take the banded
// formulation (Ukkonen's cutoff), which restricts the DP to a diagonal
// band of width 2*maxDist+1 and costs O(maxDist * min(len(a), len(b))).
//
// A negative maxDist means "no threshold" and falls back to the exact
// computation.
func Distance(a, b string, maxDist int) int {
	if maxDist < 0 {
		return Naive(a, b)
	}
	la, lb := len(a), len(b)
	// Ensure a is the shorter string: the pattern of the bit-parallel
	// kernel, the side the band walks in the banded one.
	if la > lb {
		a, b = b, a
		la, lb = lb, la
	}
	if lb-la > maxDist {
		return maxDist + 1
	}
	if la == 0 {
		return lb // <= maxDist by the check above
	}
	if la <= wordBits {
		return wordDistance(a, b, maxDist)
	}
	return banded(a, b, maxDist)
}

// wordBits is the longest pattern wordDistance takes: one uint64 column.
const wordBits = 64

// wordDistance is Distance for a pattern p of 1..wordBits bytes against
// any text t: Myers' bit-parallel Levenshtein in Hyyrö's global-distance
// form. Bit i of pv (mv) is set when D[i+1][j] - D[i][j] is +1 (-1) in the
// current text column j; score tracks D[len(p)][j]. Row 0 is D[0][j] = j,
// so every horizontal delta entering at the bottom bit is +1 (the "| 1"
// after the shift). Bits above len(p)-1 carry garbage, but additions and
// left shifts move information only upward, so they never reach the
// pattern's bits.
func wordDistance(p, t string, maxDist int) int {
	var peq [256]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]] |= 1 << uint(i)
	}
	last := uint64(1) << uint(len(p)-1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(p)
	for j := 0; j < len(t); j++ {
		eq := peq[t[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Each text byte left can lower the score by at most one.
		if score-(len(t)-1-j) > maxDist {
			return maxDist + 1
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// banded is Distance for a shorter string a longer than wordBits: the DP
// restricted to the diagonal band |i - j| <= maxDist, abandoned once a
// whole row of the band exceeds maxDist.
func banded(a, b string, maxDist int) int {
	la, lb := len(a), len(b)
	const inf = int(^uint(0) >> 2)
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		// Band for row i: |i - j| <= maxDist.
		jlo := i - maxDist
		if jlo < 1 {
			jlo = 1
		}
		jhi := i + maxDist
		if jhi > lb {
			jhi = lb
		}
		if jlo > 1 {
			curr[jlo-1] = inf
		} else {
			curr[0] = i
		}
		rowMin := inf
		ai := a[i-1]
		for j := jlo; j <= jhi; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if j-1 >= jlo-1 {
				if d := curr[j-1] + 1; d < m {
					m = d
				}
			}
			if d := prev[j] + 1; d < m {
				m = d
			}
			curr[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if jhi < lb {
			curr[jhi+1] = inf
		}
		if rowMin > maxDist {
			return maxDist + 1
		}
		prev, curr = curr, prev
	}
	if prev[lb] > maxDist {
		return maxDist + 1
	}
	return prev[lb]
}

// Within reports whether the edit distance between a and b is at most
// maxDist; a negative maxDist is never met. It is the primitive the
// grouping loop uses, and when the shorter string has at most 64 bytes it
// allocates nothing.
func Within(a, b string, maxDist int) bool {
	return maxDist >= 0 && Distance(a, b, maxDist) <= maxDist
}

// Normalized returns the edit distance divided by the length of the longer
// string, the quantity used by LBE grouping criterion 2. It returns 0 for
// two empty strings.
func Normalized(a, b string) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(Naive(a, b)) / float64(n)
}
