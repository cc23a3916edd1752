package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

// The highest reported percentile must leave at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := highestPercentile(tc.n)
		if got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 0 {
			if beyond := tc.n - nearestRank(got, tc.n); beyond < 10 {
				t.Errorf("highestPercentile(%d) = %g leaves %d samples beyond", tc.n, got, beyond)
			}
		}
	}
}

func TestP99FallsBackToSupportedPercentile(t *testing.T) {
	lat := make([]int64, 300)
	for i := range lat {
		lat[i] = int64(i+1) * 1e6
	}
	if v, p := sortedMs(lat).p99(); p != 95 || v != 285 {
		t.Errorf("300 samples: _p99 = p%g %g, want p95 285 (p99 has only 3 samples beyond)", p, v)
	}
	big := make([]int64, 2000)
	for i := range big {
		big[i] = int64(len(big)-i) * 1e6
	}
	if v, p := sortedMs(big).p99(); p != 99 || v != 1980 {
		t.Errorf("2000 samples: _p99 = p%g %g, want p99 1980", p, v)
	}
	if v, p := sortedMs(lat[:50]).p99(); p != 99 || v != 50 {
		t.Errorf("50 samples: _p99 = p%g %g, want the nearest-rank p99 50", p, v)
	}
	if v, _ := (latencies{}).p99(); v != 0 {
		t.Errorf("empty class: _p99 = %g, want 0", v)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := rangeSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("rangeSpread = %g, want 0.2", got)
	}
	if got := rangeSpread([]float64{0, 0}); got != 0 {
		t.Errorf("rangeSpread of zeros = %g, want 0", got)
	}
}

// The quartiles must be those of Python's statistics.quantiles(v, n=4),
// which is what the benchmark driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64 // (q3 - q1) / median from Python
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 9, 30, 11, 12}, (21 - 9.5) / 11},
		{[]float64{5, 7}, (7.5 - 4.5) / 6},
		{[]float64{4, 4, 4}, 0},
	} {
		if got := quartileSpread(tc.vals); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %g, want %g", tc.vals, got, tc.want)
		}
	}
}
