package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// longScenario returns a duration-step stream over 3 locations with LT and
// TT constraints, so frontier nodes carry stay counters and TL entries and
// the filter's interner accumulates timestamped state.
func longScenario(duration int) ([][]Candidate, *constraints.Set) {
	ic := constraints.NewSet()
	ic.AddLT(0, 2)
	ic.AddLT(1, 3)
	if err := ic.AddTT(0, 2, 2); err != nil {
		panic(err)
	}
	if err := ic.AddTT(2, 0, 2); err != nil {
		panic(err)
	}
	steps := make([][]Candidate, duration)
	for t := range steps {
		switch t % 3 {
		case 0:
			steps[t] = []Candidate{{Loc: 0, P: 0.6}, {Loc: 1, P: 0.4}}
		case 1:
			steps[t] = []Candidate{{Loc: 0, P: 0.3}, {Loc: 1, P: 0.5}, {Loc: 2, P: 0.2}}
		default:
			steps[t] = []Candidate{{Loc: 1, P: 0.5}, {Loc: 2, P: 0.5}}
		}
	}
	return steps, ic
}

// TestFilterInternerRebuild drives a filter with a tiny interner cap through
// a long stream and checks that (a) the rebuild path actually fires and (b)
// the filtered distribution is bit-for-bit unaffected: interned IDs are only
// compared within one Observe call, so discarding the interner must be
// invisible to the results.
func TestFilterInternerRebuild(t *testing.T) {
	const duration = 300
	steps, ic := longScenario(duration)

	small := NewFilter(ic, nil)
	small.internCap = 4
	control := NewFilter(ic, nil)

	for step, cands := range steps {
		if err := small.Observe(cands); err != nil {
			t.Fatalf("step %d: small-cap filter died: %v", step, err)
		}
		if err := control.Observe(cands); err != nil {
			t.Fatalf("step %d: control filter died: %v", step, err)
		}
		got, err := small.Current(3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.Current(3)
		if err != nil {
			t.Fatal(err)
		}
		for loc := range want {
			if got[loc] != want[loc] {
				t.Fatalf("step %d loc %d: small-cap %v, control %v", step, loc, got[loc], want[loc])
			}
		}
	}
	if small.InternerRebuilds() == 0 {
		t.Fatal("interner cap 4 never triggered a rebuild over a 300-step stream")
	}
	if control.InternerRebuilds() != 0 {
		t.Fatalf("control filter rebuilt %d times; default cap should not trip here",
			control.InternerRebuilds())
	}
	// The rebuild must actually bound the interner.
	if got := small.b.tl.size(); got > 4+len(steps[0])*3 {
		t.Fatalf("interner still holds %d links after rebuilds", got)
	}
}

// TestFilterInternerRebuildMatchesGraph: with rebuilds firing constantly,
// the filter still equals the LenientEnd ct-graph's final-timestamp marginal.
func TestFilterInternerRebuildMatchesGraph(t *testing.T) {
	const duration = 60
	steps, ic := longScenario(duration)
	f := NewFilter(ic, nil)
	f.internCap = 1 // rebuild before (almost) every step
	dists := make([][]float64, duration)
	for step, cands := range steps {
		if err := f.Observe(cands); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		row := make([]float64, 3)
		for _, c := range cands {
			row[c.Loc] = c.P
		}
		dists[step] = row
	}
	if f.InternerRebuilds() < 5 {
		t.Fatalf("expected frequent rebuilds with cap 1, got %d", f.InternerRebuilds())
	}
	g, err := Build(FromDistributions(dists), ic, &Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	marg, err := g.Marginals(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Current(3)
	if err != nil {
		t.Fatal(err)
	}
	for loc := range got {
		if math.Abs(got[loc]-marg[duration-1][loc]) > 1e-9 {
			t.Fatalf("loc %d: filter %v, graph %v", loc, got[loc], marg[duration-1][loc])
		}
	}
}

// entryKey identifies a frontier node across two filters fed identical
// observations.
func entryKey(e frontierEntry) string {
	return fmt.Sprintf("%d|%d|%v", e.node.Loc, e.node.Stay, e.node.TL)
}

// frontierEntry is one frontier node with its forward mass, so the beam test
// can sort the exact frontier without disturbing the filter.
type frontierEntry struct {
	node  *node
	alpha float64
}

// TestFilterBeamTruncationKeepsTopAlphas runs an exact filter and a beamed
// one side by side. Until the first truncation the frontiers are identical;
// at the first step where the exact frontier exceeds the beam, the beamed
// filter must have kept exactly the highest-probability nodes, renormalized.
func TestFilterBeamTruncationKeepsTopAlphas(t *testing.T) {
	const beamWidth = 3
	rng := stats.NewRNG(4242)
	truncationsSeen := 0
	for trial := 0; trial < 300; trial++ {
		ls, ic := randomScenario(rng)
		exact := NewFilter(ic, nil)
		beamed := NewFilter(ic, &FilterOptions{Beam: beamWidth})
		if beamed.Beam() != beamWidth {
			t.Fatalf("Beam() = %d, want %d", beamed.Beam(), beamWidth)
		}
		for step := 0; step < ls.Duration(); step++ {
			cands := ls.Steps[step].Candidates
			errE := exact.Observe(cands)
			errB := beamed.Observe(cands)
			if errE != nil {
				// Exact died; the beamed filter (a subset) must die too.
				if errB == nil {
					t.Fatalf("trial %d step %d: exact dead but beam alive", trial, step)
				}
				break
			}
			if errB != nil {
				// The beam may die where exact survives, never vice versa
				// in some other error mode.
				if !errors.Is(errB, ErrNoValidTrajectory) {
					t.Fatalf("trial %d step %d: beam error %v", trial, step, errB)
				}
				break
			}
			if beamed.FrontierSize() > beamWidth {
				t.Fatalf("trial %d step %d: beam frontier %d > %d",
					trial, step, beamed.FrontierSize(), beamWidth)
			}
			total := 0.0
			for _, alpha := range beamed.alphas {
				total += alpha
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("trial %d step %d: beam frontier mass %v, want 1", trial, step, total)
			}
			if exact.FrontierSize() <= beamWidth {
				// No truncation yet: frontiers must agree exactly.
				if beamed.FrontierSize() != exact.FrontierSize() {
					t.Fatalf("trial %d step %d: no truncation expected but frontiers differ (%d vs %d)",
						trial, step, beamed.FrontierSize(), exact.FrontierSize())
				}
				continue
			}
			// First truncation: the kept nodes must be the top-beamWidth of
			// the exact frontier by probability mass, renormalized.
			truncationsSeen++
			ex := make([]frontierEntry, len(exact.level))
			for i, n := range exact.level {
				ex[i] = frontierEntry{n, exact.alphas[i]}
			}
			sort.Slice(ex, func(i, j int) bool { return ex[i].alpha > ex[j].alpha })
			cut := ex[beamWidth-1].alpha
			topMass := 0.0
			top := make(map[string]float64, beamWidth)
			for _, e := range ex[:beamWidth] {
				top[entryKey(e)] = e.alpha
				topMass += e.alpha
			}
			for i, n := range beamed.level {
				e := frontierEntry{n, beamed.alphas[i]}
				want, ok := top[entryKey(e)]
				if !ok {
					// Ties at the cut line make the chosen set ambiguous;
					// accept any node with the cut probability.
					if idx := sort.Search(len(ex), func(i int) bool { return ex[i].alpha <= cut }); idx < len(ex) && math.Abs(ex[idx].alpha-cut) < 1e-12 {
						continue
					}
					t.Fatalf("trial %d step %d: beam kept %s, not in exact top-%d",
						trial, step, entryKey(e), beamWidth)
				}
				if math.Abs(e.alpha-want/topMass) > 1e-9 {
					t.Fatalf("trial %d step %d: node %s renormalized to %v, want %v",
						trial, step, entryKey(e), e.alpha, want/topMass)
				}
			}
			break // filters have diverged; later steps are not comparable
		}
	}
	if truncationsSeen == 0 {
		t.Fatal("no trial ever exercised beam truncation; scenario generator too tame")
	}
}

// TestFilterDistributionAndTopLocations checks the aggregated accessors
// against Current and each other.
func TestFilterDistributionAndTopLocations(t *testing.T) {
	f := NewFilter(nil, nil)
	if _, err := f.Distribution(); err == nil {
		t.Error("Distribution before Observe accepted")
	}
	if _, err := f.TopLocations(1); err == nil {
		t.Error("TopLocations before Observe accepted")
	}
	if err := f.Observe([]Candidate{{Loc: 0, P: 0.2}, {Loc: 1, P: 0.5}, {Loc: 2, P: 0.3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TopLocations(0); err == nil {
		t.Error("TopLocations(0) accepted")
	}
	dist, err := f.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := f.Current(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 3 {
		t.Fatalf("Distribution has %d entries, want 3", len(dist))
	}
	for i := 1; i < len(dist); i++ {
		if dist[i-1].P < dist[i].P {
			t.Fatalf("Distribution not sorted: %v", dist)
		}
	}
	for _, lp := range dist {
		if math.Abs(lp.P-cur[lp.Loc]) > 1e-12 {
			t.Fatalf("Distribution loc %d = %v, Current %v", lp.Loc, lp.P, cur[lp.Loc])
		}
	}
	top, err := f.TopLocations(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0] != dist[0] || top[1] != dist[1] {
		t.Fatalf("TopLocations(2) = %v, Distribution = %v", top, dist)
	}
	// k larger than the support returns everything.
	all, err := f.TopLocations(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(dist) {
		t.Fatalf("TopLocations(10) has %d entries, want %d", len(all), len(dist))
	}
}

// TestFilterBeamTieBreakDeterministic pins the beam-prune tie-break: when
// entries with equal probability straddle the beam boundary, the kept set is
// decided by node identity (location, stay, TL), not by the unstable sort's
// arbitrary order — so repeated runs over the same readings keep bit-identical
// frontiers. The candidate order deliberately differs from identity order to
// catch an insertion-order-dependent truncation.
func TestFilterBeamTieBreakDeterministic(t *testing.T) {
	uniform := []Candidate{{Loc: 3, P: 0.25}, {Loc: 1, P: 0.25}, {Loc: 2, P: 0.25}, {Loc: 0, P: 0.25}}
	run := func() []LocProb {
		f := NewFilter(constraints.NewSet(), &FilterOptions{Beam: 2})
		for step := 0; step < 5; step++ {
			if err := f.Observe(uniform); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		dist, err := f.Distribution()
		if err != nil {
			t.Fatal(err)
		}
		return dist
	}
	first := run()
	if len(first) != 2 {
		t.Fatalf("beam 2 kept %d locations", len(first))
	}
	// All four frontier entries tie at every step; identity order must keep
	// locations 0 and 1.
	kept := []int{first[0].Loc, first[1].Loc}
	sort.Ints(kept)
	if kept[0] != 0 || kept[1] != 1 {
		t.Fatalf("tie-break kept locations %v, want [0 1]", kept)
	}
	for trial := 0; trial < 10; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trial %d: frontier size changed: %d vs %d", trial, len(again), len(first))
		}
		for i := range first {
			if again[i].Loc != first[i].Loc || math.Float64bits(again[i].P) != math.Float64bits(first[i].P) {
				t.Fatalf("trial %d entry %d: %+v vs %+v", trial, i, again[i], first[i])
			}
		}
	}
}

// TestFilterRejectsDuplicateCandidates pins the duplicate-location check: a
// candidate set naming the same location twice used to double-accumulate
// that location's forward mass silently.
func TestFilterRejectsDuplicateCandidates(t *testing.T) {
	dup := []Candidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.25}, {Loc: 0, P: 0.25}}
	f := NewFilter(constraints.NewSet(), nil)
	if err := f.Observe(dup); err == nil {
		t.Fatal("initial observation accepted duplicate locations")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
	f = NewFilter(constraints.NewSet(), nil)
	if err := f.Observe([]Candidate{{Loc: 0, P: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Observe(dup); err == nil {
		t.Fatal("later observation accepted duplicate locations")
	}
	// The failed observation must not have advanced the filter.
	if f.Time() != 0 {
		t.Fatalf("rejected observation advanced time to %d", f.Time())
	}
}

// TestObserveAfterDeadEnd: once a stream dead-ends, every later observation
// — even one consistent with the last alive frontier — keeps failing with
// ErrNoValidTrajectory instead of resurrecting (or crashing on) the empty
// frontier, for both streaming front ends.
func TestObserveAfterDeadEnd(t *testing.T) {
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	at := func(loc int) []Candidate { return []Candidate{{Loc: loc, P: 1}} }
	for name, observe := range map[string]func([]Candidate) error{
		"Filter":     NewFilter(ic, nil).Observe,
		"beamFilter": NewFilter(ic, &FilterOptions{Beam: 1}).Observe,
		"BuildState": NewBuildState(ic).Observe,
	} {
		if err := observe(at(0)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := observe(at(1)); !errors.Is(err, ErrNoValidTrajectory) {
			t.Fatalf("%s: unreachable move gave %v, want ErrNoValidTrajectory", name, err)
		}
		for i := 0; i < 3; i++ {
			if err := observe(at(0)); !errors.Is(err, ErrNoValidTrajectory) {
				t.Fatalf("%s: observation %d after the dead end gave %v, want ErrNoValidTrajectory", name, i, err)
			}
		}
	}
}

// soakScenario returns n steps of 1 Hz readings over five locations under LT
// and TT constraints. Every step offers location 0 plus one to three others.
// No constraint ever forbids entering or staying at 0 (its latency bound only
// delays leaving it), so no frontier — beamed or not — can dead-end, while
// the TT constraints among 1-4 keep recently left locations, with their
// absolute times, in the nodes' TLs. The steps are a prefix of one fixed
// stream, whatever n is.
func soakScenario(t *testing.T, n int) ([][]Candidate, *constraints.Set) {
	ic := constraints.NewSet()
	ic.AddLT(0, 3)
	for _, tt := range [][3]int{{1, 2, 4}, {2, 3, 3}, {3, 4, 5}, {4, 1, 3}, {1, 3, 6}, {2, 4, 2}} {
		if err := ic.AddTT(tt[0], tt[1], tt[2]); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(86400)
	steps := make([][]Candidate, n)
	for k := range steps {
		cands := []Candidate{{Loc: 0, P: rng.Range(0.05, 1)}}
		for loc := 1; loc < 5; loc++ {
			if rng.Float64() < 0.5 {
				cands = append(cands, Candidate{Loc: loc, P: rng.Range(0.05, 1)})
			}
		}
		total := 0.0
		for _, c := range cands {
			total += c.P
		}
		for i := range cands {
			cands[i].P /= total
		}
		steps[k] = cands
	}
	return steps, ic
}

// TestFilterSoakDay streams a day of 1 Hz readings (86,400 timestamps) under
// LT and TT constraints through an exact and a beamed Filter. TL entries
// carry absolute times, so the interner must be rebuilt and stay bounded;
// the forward mass must stay a normalized vector of positive normal floats;
// and over the first 4,096 readings the exact filter must answer
// bit-identically to a BuildState fed the same readings.
func TestFilterSoakDay(t *testing.T) {
	const (
		day      = 86400
		stateLen = 4096
	)
	steps, ic := soakScenario(t, day)
	exact := NewFilter(ic, nil)
	beamed := NewFilter(ic, &FilterOptions{Beam: 3})
	st := NewBuildState(ic)
	for k, cands := range steps {
		for _, f := range []*Filter{exact, beamed} {
			// One step adds at most one chain of links per (node, candidate)
			// pair, and a TL holds at most one entry per location.
			oneStep := f.FrontierSize() * len(cands) * 3
			if err := f.Observe(cands); err != nil {
				t.Fatalf("step %d (beam %d): %v", k, f.Beam(), err)
			}
			if got := f.b.tl.size(); got > f.internCap+oneStep {
				t.Fatalf("step %d (beam %d): interner holds %d links, cap %d + one step %d",
					k, f.Beam(), got, f.internCap, oneStep)
			}
			sum := 0.0
			for _, a := range f.alphas {
				if !(a >= 0x1p-1022) || math.IsInf(a, 0) {
					t.Fatalf("step %d (beam %d): forward mass %v is not a positive normal float", k, f.Beam(), a)
				}
				sum += a
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("step %d (beam %d): forward mass sums to %v", k, f.Beam(), sum)
			}
		}
		if k >= stateLen {
			continue
		}
		if err := st.Observe(cands); err != nil {
			t.Fatalf("step %d: build state: %v", k, err)
		}
		if k%256 != 255 {
			continue
		}
		want, err := st.Distribution()
		if err != nil {
			t.Fatal(err)
		}
		got, err := exact.Distribution()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: filter has %d locations, build state %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Loc != want[i].Loc || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
				t.Fatalf("step %d entry %d: filter %+v, build state %+v", k, i, got[i], want[i])
			}
		}
	}
	for _, f := range []*Filter{exact, beamed} {
		if f.InternerRebuilds() == 0 {
			t.Fatalf("beam %d: the interner never rebuilt over a day of readings", f.Beam())
		}
		t.Logf("beam %d: %d interner rebuilds, final frontier %d nodes", f.Beam(), f.InternerRebuilds(), f.FrontierSize())
	}
}
