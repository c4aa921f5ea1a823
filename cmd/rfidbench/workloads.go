package main

import (
	"fmt"
	"slices"
	"strings"
)

// workload is one traffic mix the benchmark drives against a fresh daemon.
// Every workload registers planDeployments SYN1 deployments, runs the daemon
// durable (-data-dir, the system-of-record deployment) and drives it open
// loop: op i is due at i/Rate seconds into the window whatever happened
// before it.
type workload struct {
	Name      string
	Why       string     // one line; mirrored in BENCHMARK.json
	Mix       []mixEntry // relative weights of the op kinds
	Primary   []string   // request kinds the primary_* metrics time
	Secondary []string   // request kinds the secondary_* metrics time
	Rate      float64    // ops per second (open loop)
	Prefill   int        // sequences per deployment cleaned during set-up
	Daemon    []string   // daemon flags beyond -addr and -data-dir
}

// mixEntry is one kind of a workload mix with its relative weight.
type mixEntry struct {
	Kind   string
	Weight float64
}

// workloads is the benchmark's workload table; the package comment records
// why each exists and which layers it loads.
var workloads = []workload{
	{
		Name:      "offline-clean",
		Why:       "Whole 20-s sequences cleaned singly and in batches of 4 over one connection: prior, core build, store admit/evict and WAL encode+fsync carry the work; no queries.",
		Mix:       []mixEntry{{kindClean, 70}, {kindBatch, 30}},
		Primary:   []string{reqClean},
		Secondary: []string{reqBatch},
		Rate:      30,
		Daemon:    []string{"-max-store-bytes", "8388608", "-snapshot-interval", "-1s"},
	},
	{
		Name:      "query-mostly",
		Why:       "Stay, pattern and top-k reads over 256 prefilled graphs with 20% cleans beside them: query DP and the store read path carry the work, build and persist little.",
		Mix:       []mixEntry{{kindClean, 20}, {kindStay, 30}, {kindPattern, 30}, {kindTop, 20}},
		Primary:   []string{reqStay, reqMatch, reqTop},
		Secondary: []string{reqClean},
		Rate:      45,
		Prefill:   128,
		Daemon:    []string{"-snapshot-interval", "-1s"},
	},
	{
		Name:      "live-stream",
		Why:       "Sessions stream 5-reading binary chunks, SSE on half of them, a mid-stream smooth on half: codec, candidates, incremental observe/smooth and the hub carry the work.",
		Mix:       []mixEntry{{kindStream, 100}},
		Primary:   []string{reqReadings},
		Secondary: []string{reqClose},
		Rate:      12,
		Daemon:    []string{"-max-store-bytes", "33554432", "-snapshot-interval", "-1s"},
	},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// validate checks the workload's shape against its mix.
func (w workload) validate() error {
	if len(w.Mix) == 0 || len(w.Primary) == 0 || len(w.Secondary) == 0 {
		return fmt.Errorf("workload %s: needs a mix and primary and secondary request kinds", w.Name)
	}
	switch {
	case w.Rate <= 0:
		return fmt.Errorf("workload %s: rate must be positive", w.Name)
	case w.Prefill < 0:
		return fmt.Errorf("workload %s: negative prefill", w.Name)
	}
	for _, m := range w.Mix {
		if m.Weight <= 0 {
			return fmt.Errorf("workload %s: weight of %s must be positive", w.Name, m.Kind)
		}
		switch m.Kind {
		case kindStay, kindPattern, kindTop:
			if w.Prefill < 1 {
				return fmt.Errorf("workload %s: %s queries need prefilled targets (prefill >= 1)", w.Name, m.Kind)
			}
		}
	}
	return nil
}

// hasKind reports whether the workload's mix names kind.
func (w workload) hasKind(kind string) bool {
	return slices.ContainsFunc(w.Mix, func(m mixEntry) bool { return m.Kind == kind })
}
