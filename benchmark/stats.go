package main

import (
	"math"
	"sort"

	"lbe/internal/gen"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p% of the sample at
// or below it. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n). The small slack keeps a product that is a
// whole number in exact arithmetic (99.9% of 10000) from rounding up a rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it in a sample of n, which is the highest tail
// the sample can support; 50 when even p75 cannot be.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// sortedCopy returns xs ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of its median, with the quartiles Python's
// statistics.quantiles(xs, n=4) yields (the exclusive method) — the same
// figure the benchmark driver gates on. It needs two values and a non-zero
// median; otherwise it reads 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(xs)
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// poissonSchedule returns the intended send offsets, in nanoseconds from
// the step's start, of an open-loop step at rate requests/second lasting
// durNs: exponential gaps from the seeded generator, so a seed replays the
// same arrival process.
func poissonSchedule(rng *gen.RNG, rate float64, durNs int64) []int64 {
	var out []int64
	t := 0.0
	for {
		// 1-U is in (0,1], so the log is finite.
		t += -math.Log(1-rng.Float64()) / rate * 1e9
		if int64(t) >= durNs {
			return out
		}
		out = append(out, int64(t))
	}
}
