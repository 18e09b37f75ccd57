package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics guide §1).
const tailMinBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supportedPercentile lowers want to the highest percentile that still
// has tailMinBeyond samples above it in a sample of n, so a short run
// reports "p97" under the p99 name instead of the maximum dressed up as
// a percentile. It never returns less than 50: below that there is no
// tail to speak of and the median is the honest answer.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	highest := 100 * float64(n-tailMinBeyond) / float64(n)
	return max(50, min(want, highest))
}

// tail reports the want-th percentile of samples, or the highest
// supported one below it, and which one it used.
func tail(samples []float64, want float64) (value, used float64) {
	if len(samples) == 0 {
		return 0, want
	}
	s := sortedCopy(samples)
	used = supportedPercentile(len(s), want)
	return percentile(s, used), used
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the middle pair for even n); 0 for empty input.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minMax of v; zeros for empty input.
func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply to the
// workload, e.g. wire bytes on a local store).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
