package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// longScenario returns a duration-step stream over 3 locations with LT and
// TT constraints, so frontier nodes carry stay counters and TL entries and
// the interner accumulates timestamped state.
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

// filtered returns st's filtered distribution as a dense vector over
// numLocs locations.
func filtered(t *testing.T, st *BuildState, numLocs int) []float64 {
	t.Helper()
	dist, err := st.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, numLocs)
	for _, lp := range dist {
		if lp.Loc >= numLocs {
			t.Fatalf("frontier location ID %d outside [0, %d)", lp.Loc, numLocs)
		}
		out[lp.Loc] = lp.P
	}
	return out
}

// TestFilterInternerRebuild drives a build state with a tiny interner cap
// through a long stream and checks that (a) the rebuild path actually fires
// and (b) the filtered distribution is bit-for-bit unaffected: interned IDs
// are only compared within one Observe call, so discarding the interner must
// be invisible to the results.
func TestFilterInternerRebuild(t *testing.T) {
	const duration = 300
	steps, ic := longScenario(duration)

	small := newBuildState(ic, false)
	small.internCap = 4
	control := newBuildState(ic, false)

	for step, cands := range steps {
		if err := small.Observe(cands); err != nil {
			t.Fatalf("step %d: small-cap state died: %v", step, err)
		}
		if err := control.Observe(cands); err != nil {
			t.Fatalf("step %d: control state died: %v", step, err)
		}
		got, want := filtered(t, small, 3), filtered(t, control, 3)
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
		t.Fatalf("control state rebuilt %d times; default cap should not trip here",
			control.InternerRebuilds())
	}
	// The rebuild must actually bound the interner.
	if got := small.b.tl.size(); got > 4+len(steps[0])*3 {
		t.Fatalf("interner still holds %d links after rebuilds", got)
	}
}

// TestFilterInternerRebuildMatchesGraph: with rebuilds firing constantly,
// the filtered distribution still equals the LenientEnd ct-graph's
// final-timestamp marginal.
func TestFilterInternerRebuildMatchesGraph(t *testing.T) {
	const duration = 60
	steps, ic := longScenario(duration)
	st := newBuildState(ic, false)
	st.internCap = 1 // rebuild before (almost) every step
	dists := make([][]float64, duration)
	for step, cands := range steps {
		if err := st.Observe(cands); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		row := make([]float64, 3)
		for _, c := range cands {
			row[c.Loc] = c.P
		}
		dists[step] = row
	}
	if st.InternerRebuilds() < 5 {
		t.Fatalf("expected frequent rebuilds with cap 1, got %d", st.InternerRebuilds())
	}
	g, err := Build(FromDistributions(dists), ic, &Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	marg, err := g.Marginals(3)
	if err != nil {
		t.Fatal(err)
	}
	got := filtered(t, st, 3)
	for loc := range got {
		if math.Abs(got[loc]-marg[duration-1][loc]) > 1e-9 {
			t.Fatalf("loc %d: filter %v, graph %v", loc, got[loc], marg[duration-1][loc])
		}
	}
}

// TestFilterDistributionAndTopLocations checks the aggregated accessors
// against the observed candidates and each other.
func TestFilterDistributionAndTopLocations(t *testing.T) {
	st := NewBuildState(nil)
	if _, err := st.Distribution(); err == nil {
		t.Error("Distribution before Observe accepted")
	}
	if _, err := st.TopLocations(1); err == nil {
		t.Error("TopLocations before Observe accepted")
	}
	cands := []Candidate{{Loc: 0, P: 0.2}, {Loc: 1, P: 0.5}, {Loc: 2, P: 0.3}}
	if err := st.Observe(cands); err != nil {
		t.Fatal(err)
	}
	if _, err := st.TopLocations(0); err == nil {
		t.Error("TopLocations(0) accepted")
	}
	dist, err := st.Distribution()
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
		if math.Abs(lp.P-cands[lp.Loc].P) > 1e-12 {
			t.Fatalf("Distribution loc %d = %v, candidate %v", lp.Loc, lp.P, cands[lp.Loc].P)
		}
	}
	top, err := st.TopLocations(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0] != dist[0] || top[1] != dist[1] {
		t.Fatalf("TopLocations(2) = %v, Distribution = %v", top, dist)
	}
	// k larger than the support returns everything.
	all, err := st.TopLocations(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(dist) {
		t.Fatalf("TopLocations(10) has %d entries, want %d", len(all), len(dist))
	}
}

// TestFilterRejectsDuplicateCandidates pins the duplicate-location check: a
// candidate set naming the same location twice used to double-accumulate
// that location's forward mass silently.
func TestFilterRejectsDuplicateCandidates(t *testing.T) {
	dup := []Candidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.25}, {Loc: 0, P: 0.25}}
	st := NewBuildState(constraints.NewSet())
	if err := st.Observe(dup); err == nil {
		t.Fatal("initial observation accepted duplicate locations")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
	st = NewBuildState(constraints.NewSet())
	if err := st.Observe([]Candidate{{Loc: 0, P: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(dup); err == nil {
		t.Fatal("later observation accepted duplicate locations")
	}
	// The failed observation must not have advanced the state.
	if st.Time() != 0 || st.Duration() != 1 {
		t.Fatalf("rejected observation advanced time to %d (duration %d)", st.Time(), st.Duration())
	}
}

// TestObserveAfterDeadEnd: once a stream dead-ends, every later observation
// — even one consistent with the last alive frontier — keeps failing with
// ErrNoValidTrajectory instead of resurrecting (or crashing on) the empty
// frontier.
func TestObserveAfterDeadEnd(t *testing.T) {
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	at := func(loc int) []Candidate { return []Candidate{{Loc: loc, P: 1}} }
	st := NewBuildState(ic)
	if err := st.Observe(at(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(at(1)); !errors.Is(err, ErrNoValidTrajectory) {
		t.Fatalf("unreachable move gave %v, want ErrNoValidTrajectory", err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Observe(at(0)); !errors.Is(err, ErrNoValidTrajectory) {
			t.Fatalf("observation %d after the dead end gave %v, want ErrNoValidTrajectory", i, err)
		}
	}
	if st.Duration() != 1 {
		t.Fatalf("dead state holds %d levels, want the accepted prefix of 1", st.Duration())
	}
}

// soakScenario returns n steps of 1 Hz readings over five locations under LT
// and TT constraints. Every step offers location 0 plus one to three others.
// No constraint ever forbids entering or staying at 0 (its latency bound only
// delays leaving it), so the frontier can never dead-end, while
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
