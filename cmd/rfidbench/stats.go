package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// whether at least minBeyond samples lie strictly beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	v := s[rank-1]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the quartile distance as a share of the median: the run-to-run
// noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
