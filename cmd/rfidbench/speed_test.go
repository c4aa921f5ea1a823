package main

import (
	"math"
	"testing"
)

func TestSpeedScaleIsReferenceOverMeanKernelTime(t *testing.T) {
	for _, tc := range []struct {
		kernelMs []float64
		want     float64
	}{
		{[]float64{speedRefMs}, 1},
		{[]float64{0.25, 0.75}, 1},
		{[]float64{1, 1, 1}, speedRefMs},
		{[]float64{0.25}, 2},
	} {
		if got := speedScale(tc.kernelMs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("speedScale(%v) = %v, want %v", tc.kernelMs, got, tc.want)
		}
	}
	if got := speedScale(nil); !math.IsNaN(got) {
		t.Errorf("speedScale(nil) = %v, want NaN so the run's metrics are rejected", got)
	}
}

func TestSpeedKernelDoesFixedWork(t *testing.T) {
	first := speedKernel()
	for i := 0; i < 3; i++ {
		if got := speedKernel(); got != first {
			t.Fatalf("kernel run %d returned %d, first run %d", i+2, got, first)
		}
	}
	if ms := timeKernel(); ms <= 0 {
		t.Errorf("timeKernel = %v ms", ms)
	}
}
