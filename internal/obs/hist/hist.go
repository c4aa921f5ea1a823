// Package hist provides an HDR-style log-bucketed latency histogram shared
// by the server's /metrics exposition and the load harness. Values are
// nanoseconds.
//
// The bucket ladder is the classic HDR layout: values below 2*2^SubBits are
// recorded exactly; above that, each power-of-two octave is split into
// 2^SubBits linear sub-buckets, bounding the relative quantile error at
// 2^-(SubBits+1) (under 0.8% here). Recording is a handful of atomic adds,
// so many goroutines share one histogram without locks.
package hist

import (
	"math/bits"
	"sync/atomic"
)

const (
	// SubBits is the number of linear sub-bucket bits per octave.
	SubBits = 6
	sub     = 1 << SubBits
	// NumBuckets covers every non-negative int64: the widest index is
	// (shift+1)*sub + s with shift <= 62-SubBits.
	NumBuckets = (64 - SubBits) * sub
)

// Hist is a fixed-size lock-free histogram. The zero value is ready to use.
type Hist struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Index maps a nanosecond value to its bucket.
func Index(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*sub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top set bit, >= SubBits+1
	shift := exp - SubBits           // >= 1
	s := int(v>>shift) - sub         // in [0, sub)
	return (shift+1)*sub + s
}

// Bounds returns the half-open value range [lo, hi) of a bucket.
func Bounds(idx int) (lo, hi int64) {
	if idx < 2*sub {
		return int64(idx), int64(idx) + 1
	}
	shift := idx/sub - 1
	s := int64(idx % sub)
	lo = (sub + s) << shift
	return lo, lo + 1<<shift
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	h.counts[Index(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded values in nanoseconds.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value, or 0 when empty.
func (h *Hist) Max() int64 { return h.max.Load() }

// Quantile returns the value at quantile q in [0, 1] (the midpoint of the
// bucket holding the rank), or 0 for an empty histogram.
func (h *Hist) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			lo, hi := Bounds(i)
			return lo + (hi-lo-1)/2
		}
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean in nanoseconds, or 0 when empty.
func (h *Hist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Cumulative folds the fine-grained buckets onto a coarse bound ladder given
// in seconds (internal/server's scheme), returning cumulative counts per
// bound plus the +Inf total — so client-side distributions line up with the
// daemon's /metrics histograms.
func (h *Hist) Cumulative(boundsSeconds []float64) []uint64 {
	out := make([]uint64, len(boundsSeconds)+1)
	for i := 0; i < NumBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := Bounds(i)
		mid := float64(lo+(hi-lo-1)/2) / 1e9
		j := len(boundsSeconds)
		for k, b := range boundsSeconds {
			if mid <= b {
				j = k
				break
			}
		}
		out[j] += c
	}
	for i := 1; i < len(out); i++ {
		out[i] += out[i-1]
	}
	return out
}
