package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank method: the smallest sample with at least a q share of
// the samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest-rank position of the q-quantile of n samples.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailQuantile reports the q-quantile of an ascending slice only where at
// least minBeyond samples lie above it. With too few samples for q it falls
// back to the highest quantile that keeps minBeyond samples above it, and
// returns the quantile it used. ok is false when not even that exists.
func tailQuantile(sorted []float64, q float64, minBeyond int) (v, used float64, ok bool) {
	n := len(sorted)
	k := rankOf(n, q)
	if n-k < minBeyond {
		k = n - minBeyond
	}
	if n == 0 || k < 1 {
		return 0, 0, false
	}
	return sorted[k-1], float64(k) / float64(n), true
}
