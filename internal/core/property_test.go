package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// randomScenario draws a small random l-sequence and constraint set.
func randomScenario(rng *stats.RNG) (*LSequence, *constraints.Set) {
	numLocs := rng.IntRange(2, 4)
	duration := rng.IntRange(1, 6)
	dists := make([][]float64, duration)
	for t := range dists {
		row := make([]float64, numLocs)
		// Pick 1..numLocs candidates with random weights.
		k := rng.IntRange(1, numLocs)
		perm := make([]int, numLocs)
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(numLocs, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		total := 0.0
		for i := 0; i < k; i++ {
			w := rng.Range(0.1, 1)
			row[perm[i]] = w
			total += w
		}
		for i := range row {
			row[i] /= total
		}
		dists[t] = row
	}
	ls := FromDistributions(dists)

	ic := constraints.NewSet()
	// Random DU constraints.
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i != j && rng.Bernoulli(0.2) {
				ic.AddDU(i, j)
			}
		}
	}
	// Random LT constraints.
	for i := 0; i < numLocs; i++ {
		if rng.Bernoulli(0.3) {
			ic.AddLT(i, rng.IntRange(2, 3))
		}
	}
	// Random TT constraints.
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i != j && rng.Bernoulli(0.2) {
				if err := ic.AddTT(i, j, rng.IntRange(2, 4)); err != nil {
					panic(err)
				}
			}
		}
	}
	return ls, ic
}

// TestPropertyGraphMatchesOracle is the core equivalence property: for random
// scenarios, under both end-latency modes, the ct-graph's path distribution
// equals the brute-force conditioned distribution, and both report
// inconsistency on the same inputs.
func TestPropertyGraphMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(20140324) // EDBT 2014 :)
	const trials = 1500
	validScenarios := 0
	for trial := 0; trial < trials; trial++ {
		ls, ic := randomScenario(rng)
		for _, mode := range []constraints.EndLatencyMode{constraints.StrictEnd, constraints.LenientEnd} {
			oracle, oErr := EnumerateConditioned(ls, ic, mode, 1<<20)
			g, gErr := Build(ls, ic, &Options{EndLatency: mode})
			if oErr != nil {
				if !errors.Is(oErr, ErrNoValidTrajectory) {
					t.Fatalf("trial %d: oracle error %v", trial, oErr)
				}
				if !errors.Is(gErr, ErrNoValidTrajectory) {
					t.Fatalf("trial %d (%v): oracle says inconsistent, Build says %v", trial, mode, gErr)
				}
				continue
			}
			if gErr != nil {
				t.Fatalf("trial %d (%v): oracle found %d valid trajectories but Build failed: %v",
					trial, mode, len(oracle.Trajectories), gErr)
			}
			validScenarios++
			if err := g.CheckInvariants(1e-9); err != nil {
				t.Fatalf("trial %d (%v): invariants: %v", trial, mode, err)
			}
			got, err := g.conditionedDistribution(1 << 20)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := oracle.Distribution()
			if len(got) != len(want) {
				t.Fatalf("trial %d (%v): graph has %d trajectories, oracle %d\ngraph: %v\noracle: %v",
					trial, mode, len(got), len(want), got, want)
			}
			for k, p := range want {
				if math.Abs(got[k]-p) > 1e-9 {
					t.Fatalf("trial %d (%v): P(%s) = %v, oracle %v", trial, mode, k, got[k], p)
				}
			}
		}
	}
	if validScenarios < trials/4 {
		t.Errorf("only %d/%d scenario-modes were consistent; generator too aggressive", validScenarios, 2*trials)
	}
}

// TestPropertyPathsAreValid checks Definition 2 directly on every path the
// graph emits, and completeness: every valid trajectory appears as a path.
func TestPropertyPathsAreValid(t *testing.T) {
	rng := stats.NewRNG(777)
	for trial := 0; trial < 400; trial++ {
		ls, ic := randomScenario(rng)
		mode := constraints.StrictEnd
		if trial%2 == 1 {
			mode = constraints.LenientEnd
		}
		g, err := Build(ls, ic, &Options{EndLatency: mode})
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := make(map[string]bool)
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			locs := g.pathLocations(path)
			if !ic.ValidTrajectory(locs, mode) {
				t.Fatalf("trial %d: graph emitted invalid trajectory %v", trial, locs)
			}
			if p <= 0 {
				t.Fatalf("trial %d: non-positive path probability %v", trial, p)
			}
			seen[TrajectoryKey(locs)] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		// Completeness vs brute force.
		oracle, err := EnumerateConditioned(ls, ic, mode, 1<<20)
		if err != nil {
			t.Fatalf("trial %d: oracle disagrees on consistency: %v", trial, err)
		}
		for _, tr := range oracle.Trajectories {
			if !seen[TrajectoryKey(tr)] {
				t.Fatalf("trial %d: valid trajectory %v missing from graph", trial, tr)
			}
		}
	}
}

// TestPropertyMarginalsMatchEnumeration cross-checks the alpha/beta marginals
// against summing path probabilities.
func TestPropertyMarginalsMatchEnumeration(t *testing.T) {
	rng := stats.NewRNG(31337)
	for trial := 0; trial < 200; trial++ {
		ls, ic := randomScenario(rng)
		g, err := Build(ls, ic, nil)
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		numLocs := ls.NumLocations()
		want := make([][]float64, g.Duration())
		for tau := range want {
			want[tau] = make([]float64, numLocs)
		}
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			for tau, loc := range g.pathLocations(path) {
				want[tau][loc] += p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Marginals(numLocs)
		if err != nil {
			t.Fatal(err)
		}
		for tau := range want {
			for loc := range want[tau] {
				if math.Abs(got[tau][loc]-want[tau][loc]) > 1e-9 {
					t.Fatalf("trial %d: marginal[%d][%d] = %v, want %v",
						trial, tau, loc, got[tau][loc], want[tau][loc])
				}
			}
		}
	}
}

// TestPropertyWalkPathsRetainable is the regression test for the WalkPaths
// aliasing bug: the recursion used to hand callbacks a slice sharing its
// backing array across sibling branches, so retained paths were silently
// overwritten. Collect every path first, validate them all afterwards.
func TestPropertyWalkPathsRetainable(t *testing.T) {
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 200; trial++ {
		ls, ic := randomScenario(rng)
		g, err := Build(ls, ic, nil)
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var paths [][]int
		var probs []float64
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			paths = append(paths, path)
			probs = append(probs, p)
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for i, path := range paths {
			// Retained paths must still be intact, distinct source-to-target
			// paths with their reported probabilities.
			p, err := g.PathProbability(path)
			if err != nil {
				t.Fatalf("trial %d: retained path %d no longer valid: %v", trial, i, err)
			}
			if math.Abs(p-probs[i]) > 1e-12 {
				t.Fatalf("trial %d: retained path %d has prob %v, reported %v", trial, i, p, probs[i])
			}
			key := TrajectoryKey(g.pathLocations(path))
			if seen[key] {
				t.Fatalf("trial %d: retained paths collapsed onto %s", trial, key)
			}
			seen[key] = true
		}
	}
}

// TestPropertySampleDistribution verifies that ancestral sampling follows the
// conditioned distribution on a fixed scenario.
func TestPropertySampleDistribution(t *testing.T) {
	ls, ic := func() (*LSequence, *constraints.Set) {
		ic := constraints.NewSet()
		ic.AddDU(0, 1)
		ls := FromDistributions([][]float64{
			{0.6, 0.4},
			{0.5, 0.5},
			{0.3, 0.7},
		})
		return ls, ic
	}()
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4242)
	const n = 200000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		locs := g.Sample(rng)
		if locs == nil {
			t.Fatal("Sample returned nil")
		}
		if !ic.ValidTrajectory(locs, constraints.StrictEnd) {
			t.Fatalf("sampled invalid trajectory %v", locs)
		}
		counts[TrajectoryKey(locs)]++
	}
	for k, p := range want {
		freq := float64(counts[k]) / n
		if math.Abs(freq-p) > 0.01 {
			t.Errorf("P(%s): sampled %v, want %v", k, freq, p)
		}
	}
	for k := range counts {
		if _, ok := want[k]; !ok {
			t.Errorf("sampled trajectory %s not in the distribution", k)
		}
	}
}

// TestPropertyViterbi verifies MostProbable against enumeration.
func TestPropertyViterbi(t *testing.T) {
	rng := stats.NewRNG(909)
	for trial := 0; trial < 300; trial++ {
		ls, ic := randomScenario(rng)
		g, err := Build(ls, ic, nil)
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		bestLocs, bestP := g.MostProbable()
		if bestLocs == nil {
			t.Fatalf("trial %d: MostProbable returned nil on non-empty graph", trial)
		}
		var trueBest float64
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			if p > trueBest {
				trueBest = p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bestP-trueBest) > 1e-9 {
			t.Fatalf("trial %d: Viterbi prob %v, true best %v", trial, bestP, trueBest)
		}
		dist, err := g.conditionedDistribution(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dist[TrajectoryKey(bestLocs)]-bestP) > 1e-9 {
			t.Fatalf("trial %d: Viterbi trajectory %v has prob %v, claimed %v",
				trial, bestLocs, dist[TrajectoryKey(bestLocs)], bestP)
		}
	}
}
