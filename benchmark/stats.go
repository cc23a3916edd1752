package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest value with at least p% of the samples at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is ⌈p/100 × n⌉ clamped to [1, n]. The small slack keeps
// a product that is a whole number in exact arithmetic (99.9% of
// 10 000) from rounding up to the next rank in floating point.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

// tailPercentiles are the candidates for the highest reported
// percentile, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// highestPercentile returns the highest of tailPercentiles that has at
// least ten samples beyond it in a sample of n, or 0 when even p90 has
// fewer (n < 100).
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for an empty sample. vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// rangeSpread is (max − min) ÷ median over repeated runs of the same
// code. 0 when the median is 0.
func rangeSpread(vals []float64) float64 {
	lo, hi := minMax(vals)
	return ratio(hi-lo, math.Abs(median(vals)))
}

// quartileSpread is the distance between the first and the third
// quartile ÷ median, the statistic the benchmark driver judges a
// metric's steadiness by. The quartiles are those of Python's
// statistics.quantiles(vals, n=4): the exclusive method, interpolating
// at positions i(n+1)/4. It needs at least two values.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - 4*j // beyond [0, 4) when j was clamped: extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(quartile(3)-quartile(1), math.Abs(median(s)))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
