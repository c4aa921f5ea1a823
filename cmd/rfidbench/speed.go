package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"time"
)

// This file measures how fast the host runs while the benchmark runs. On a
// shared host the same code runs up to half again as slow for seconds to
// minutes at a time, as neighbours load the machine, and every time a run
// measures moves with it: latency, daemon CPU per op and set-up alike. So
// the benchmark times a fixed kernel, standard-library code that no commit
// of this repository changes, whenever the daemon has nothing to do: the
// load generator runs it once while it waits for the next op, and set-up
// runs it before each round. Each time the run reports is scaled by
// speedRefMs over the kernel's mean time in the same phase, so it reads as
// it would on a host running the kernel in speedRefMs. A change to the
// program leaves the kernel's time as it is, so the change shows in full.

const (
	// speedRefMs is the kernel's mean time, in ms, on the reference host
	// (2 vCPUs of a shared KVM x86-64 host) at its usual speed.
	speedRefMs = 0.5
	// speedHeadroom is how long before the next op is due the idle load
	// generator must be to run the kernel.
	speedHeadroom = 3 * time.Millisecond
	// setupKernelRuns is how many times the kernel runs before each set-up
	// round and after the last.
	setupKernelRuns = 20
)

// speedRecord is one row the kernel encodes, decodes and sorts: a reading
// with a location and a probability, like the daemon's own payloads.
type speedRecord struct {
	T    int     `json:"t"`
	Loc  string  `json:"loc"`
	P    float64 `json:"p"`
	Tags []int   `json:"tags"`
}

// speedKernel is one fixed unit of host work: allocation, map updates,
// number formatting, a JSON round trip and a sort over 128 generated rows.
// It returns a digest of its result, the same on every run.
func speedKernel() int {
	const n = 128
	rows := make([]speedRecord, n)
	weights := make(map[string]float64, 16)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		loc := "L" + strconv.Itoa(int(x%16))
		p := float64(x>>11) / (1 << 53)
		rows[i] = speedRecord{T: i, Loc: loc, P: p, Tags: []int{int(x % 7), int(x % 11)}}
		weights[loc] += p
	}
	// Neither call can fail: the rows hold finite floats, ints and strings,
	// and Unmarshal reads back what Marshal wrote.
	data, _ := json.Marshal(rows)
	var back []speedRecord
	_ = json.Unmarshal(data, &back)
	sort.Slice(back, func(a, b int) bool { return back[a].P < back[b].P })
	return len(data) + len(weights) + back[0].T
}

// timeKernel runs the kernel once and returns its time in ms.
func timeKernel() float64 {
	start := time.Now()
	speedKernel()
	return ms(time.Since(start))
}

// speedScale is the factor that turns a time measured while the kernel took
// kernelMs (its times in the same phase) into reference-host time; NaN when
// the kernel never ran.
func speedScale(kernelMs []float64) float64 {
	if len(kernelMs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range kernelMs {
		sum += v
	}
	return speedRefMs * float64(len(kernelMs)) / sum
}
