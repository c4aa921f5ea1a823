package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
		ok   bool
	}{
		{seq(100), 0.90, 90, true},   // 91..100 lie beyond
		{seq(99), 0.90, 90, false},   // only 9 beyond
		{seq(100), 0.95, 95, false},  // only 5 beyond
		{seq(1000), 0.99, 990, true}, // exactly ten beyond
		{seq(20), 0.50, 10, true},
	} {
		got, ok := percentile(tc.xs, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, %g) = %g, %v; want %g, %v", len(tc.xs), tc.q, got, ok, tc.want, tc.ok)
		}
	}
	// Samples equal to the percentile do not count as beyond it.
	ties := seq(80)
	for i := 0; i < 20; i++ {
		ties = append(ties, 90)
	}
	if v, ok := percentile(ties, 0.90); v != 90 || ok {
		t.Errorf("tied tail: got %g, %v; want 90, false", v, ok)
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("empty: got %g, %v", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, [3]float64{2.15, 4.4, 7.45}},
		{[]float64{10.0, 10.5, 9.8, 11.2, 10.1, 9.9, 10.4, 10.0, 10.3, 10.2}, [3]float64{9.975, 10.15, 10.425}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %g", got)
	}
}
