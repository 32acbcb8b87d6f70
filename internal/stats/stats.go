// Package stats computes the load-balance metrics of the paper's
// evaluation: the normalized load imbalance of Eq. 1 and the
// wasted-CPU-time model of §VI.
package stats

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// maxDeviation returns ∆Tmax, the largest positive deviation of a
// machine's compute time from the average, and that average.
func maxDeviation(times []float64) (dmax, avg float64) {
	avg = Mean(times)
	for _, t := range times {
		if d := t - avg; d > dmax {
			dmax = d
		}
	}
	return dmax, avg
}

// LoadImbalance computes Eq. 1 of the paper: LI = ∆Tmax / Tavg. It
// returns 0 for empty input or zero average (an idle system is balanced).
func LoadImbalance(times []float64) float64 {
	dmax, avg := maxDeviation(times)
	if avg == 0 {
		return 0
	}
	return dmax / avg
}

// WastedCPUTime computes the §VI model: Twst = N * ∆Tmax, the total CPU
// time the system spends idle waiting for the slowest machine.
func WastedCPUTime(times []float64) float64 {
	dmax, _ := maxDeviation(times)
	return float64(len(times)) * dmax
}
