package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraints"
)

const (
	l1 = 1
	l2 = 2
	l3 = 3
	l4 = 4
	l5 = 5
)

// runningExample reproduces the paper's running example (examples 4-12):
//
//	Γ: τ=0 {L1: 3/5, L2: 2/5}, τ=1 {L3: 1/3, L4: 2/3}, τ=2 {L3: 2/3, L5: 1/3}
//	IC: latency(L3, 2), unreachable(L2, L3), travelingTime(L1, L5, 3),
//	    plus the DU constraints the map of Fig. 1(b) implies for L4
//	    (L4 is directly connected to neither L3 nor L5).
func runningExample(t *testing.T) (*LSequence, *constraints.Set) {
	t.Helper()
	ls := &LSequence{Steps: []Step{
		{Candidates: []Candidate{{l1, 3.0 / 5}, {l2, 2.0 / 5}}},
		{Candidates: []Candidate{{l3, 1.0 / 3}, {l4, 2.0 / 3}}},
		{Candidates: []Candidate{{l3, 2.0 / 3}, {l5, 1.0 / 3}}},
	}}
	ic := constraints.NewSet()
	ic.AddLT(l3, 2)
	ic.AddDU(l2, l3)
	ic.AddDU(l4, l3)
	ic.AddDU(l4, l5)
	if err := ic.AddTT(l1, l5, 3); err != nil {
		t.Fatal(err)
	}
	return ls, ic
}

func TestRunningExampleGraph(t *testing.T) {
	ls, ic := runningExample(t)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 7: a single path n0 -> n3 -> n7 with probability 1.
	for tau := 0; tau < 3; tau++ {
		if n := g.Level(tau).Width(); n != 1 {
			t.Fatalf("timestamp %d has %d nodes, want 1", tau, n)
		}
	}
	src := g.Level(0)
	if src.Loc(0) != l1 {
		t.Errorf("source location = L%d, want L1", src.Loc(0))
	}
	if math.Abs(src.SourceProb(0)-1) > 1e-12 {
		t.Errorf("p_N(n0) = %v, want 1", src.SourceProb(0))
	}
	if loc := g.Level(1).Loc(0); loc != l3 {
		t.Errorf("middle node at L%d, want L3", loc)
	}
	// n3 = (1, L3, δ pending, TL={(0,L1)}).
	stay, tl := g.identity(1, 0)
	if stay == StayUntracked {
		t.Errorf("n3 should have a pending stay counter")
	}
	if len(tl) != 1 || tl[0] != (TLEntry{Time: 0, Loc: l1}) {
		t.Errorf("n3.TL = %v, want [(0,L1)]", tl)
	}
	if stay, _ := g.identity(2, 0); g.Level(2).Loc(0) != l3 || stay != StayUntracked {
		t.Errorf("n7 = (2, L%d, %d), want (2, L3, ⊥, ...)", g.Level(2).Loc(0), stay)
	}
	for tau := 0; tau < 2; tau++ {
		arcs := g.Level(tau).Out(0)
		if _, p := arcs.At(0); arcs.Len() != 1 || math.Abs(p-1) > 1e-12 {
			t.Errorf("node 0 at timestamp %d: out arcs not conditioned to 1", tau)
		}
	}
	if err := g.CheckInvariants(1e-9); err != nil {
		t.Errorf("invariants: %v", err)
	}
	dist, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || math.Abs(dist[TrajectoryKey([]int{l1, l3, l3})]-1) > 1e-12 {
		t.Errorf("conditioned distribution = %v", dist)
	}
}

func TestRunningExampleOracleAgrees(t *testing.T) {
	ls, ic := runningExample(t)
	res, err := EnumerateConditioned(ls, ic, constraints.StrictEnd, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enumerated != 8 {
		t.Errorf("enumerated %d trajectories, want 8", res.Enumerated)
	}
	if len(res.Trajectories) != 1 {
		t.Fatalf("oracle found %d valid trajectories, want 1: %v", len(res.Trajectories), res.Trajectories)
	}
	want := []int{l1, l3, l3}
	for i, l := range want {
		if res.Trajectories[0][i] != l {
			t.Fatalf("oracle trajectory = %v, want %v", res.Trajectories[0], want)
		}
	}
	// The single valid trajectory has prior (3/5)(1/3)(2/3) = 2/15.
	if math.Abs(res.TotalPrior-2.0/15) > 1e-12 {
		t.Errorf("TotalPrior = %v, want 2/15", res.TotalPrior)
	}
}

func TestNoConstraintsKeepsPrior(t *testing.T) {
	// Without constraints the conditioned distribution equals the prior.
	ls := FromDistributions([][]float64{
		{0.5, 0.5},
		{0.2, 0.8},
	})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"0,0": 0.1, "0,1": 0.4, "1,0": 0.1, "1,1": 0.4,
	}
	for k, p := range want {
		if math.Abs(dist[k]-p) > 1e-12 {
			t.Errorf("dist[%s] = %v, want %v", k, dist[k], p)
		}
	}
}

func TestBuildErrNoValidTrajectory(t *testing.T) {
	ls := FromDistributions([][]float64{
		{1},
		{0, 1},
	})
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	_, err := Build(ls, ic, nil)
	if !errors.Is(err, ErrNoValidTrajectory) {
		t.Errorf("err = %v, want ErrNoValidTrajectory", err)
	}
	if _, err := EnumerateConditioned(ls, ic, constraints.StrictEnd, 100); !errors.Is(err, ErrNoValidTrajectory) {
		t.Errorf("oracle err = %v, want ErrNoValidTrajectory", err)
	}
}

// TestBuildSeesConstraintChange: Build compiles its set once and keeps the
// compiled view on the set, so a constraint added after a build must reach
// the next build, under each way of changing the set.
func TestBuildSeesConstraintChange(t *testing.T) {
	ls := FromDistributions([][]float64{{1}, {0.5, 0.5}, {0, 0.5, 0.5}})
	for name, change := range map[string]func(*constraints.Set){
		"DU": func(ic *constraints.Set) { ic.AddDU(0, 1) },
		"LT": func(ic *constraints.Set) { ic.AddLT(0, 2) },
		"TT": func(ic *constraints.Set) { _ = ic.AddTT(0, 2, 3) },
		"Merge": func(ic *constraints.Set) {
			other := constraints.NewSet()
			other.AddDU(0, 1)
			ic.Merge(other)
		},
	} {
		ic := constraints.NewSet()
		ic.AddDU(1, 0)
		if _, err := Build(ls, ic, &Options{Quotient: true}); err != nil {
			t.Fatal(err)
		}
		change(ic)
		got, err := Build(ls, ic, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := EnumerateConditioned(ls, ic, constraints.StrictEnd, 100)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := got.conditionedDistribution(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(dist) != len(want.Trajectories) {
			t.Fatalf("%s: build after the change keeps %d trajectories, the oracle %d", name, len(dist), len(want.Trajectories))
		}
	}
}

func TestBuildRejectsInvalidInput(t *testing.T) {
	if _, err := Build(&LSequence{}, nil, nil); err == nil {
		t.Errorf("empty l-sequence accepted")
	}
	bad := &LSequence{Steps: []Step{{Candidates: []Candidate{{0, 0.5}}}}}
	if _, err := Build(bad, nil, nil); err == nil {
		t.Errorf("non-normalized step accepted")
	}
}

func TestLatencyWindowStart(t *testing.T) {
	// latency(0, 3): the initial stay must run 3 timestamps.
	ic := constraints.NewSet()
	ic.AddLT(0, 3)
	ls := FromDistributions([][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
		{0.5, 0.5},
	})
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	// Valid: 000 (full stay), and anything avoiding 0 stays that are too
	// short... but every visit to 0 must last 3, so within 3 steps: 000 or
	// 111, or paths never entering 0: 111. Entering 0 mid-window can
	// never satisfy a 3-stay except 000.
	if len(dist) != 2 {
		t.Fatalf("dist = %v", dist)
	}
	for _, k := range []string{"0,0,0", "1,1,1"} {
		if dist[k] <= 0 {
			t.Errorf("missing trajectory %s in %v", k, dist)
		}
	}
}

func TestLatencyEndModes(t *testing.T) {
	// latency(0, 2) and a 2-step window: trajectory 1,0 truncates the stay.
	ic := constraints.NewSet()
	ic.AddLT(0, 2)
	ls := FromDistributions([][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
	})
	strict, err := Build(ls, ic, &Options{EndLatency: constraints.StrictEnd})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := strict.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sd["1,0"]; ok {
		t.Errorf("strict mode kept truncated stay: %v", sd)
	}
	lenient, err := Build(ls, ic, &Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := lenient.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ld["1,0"]; !ok {
		t.Errorf("lenient mode dropped truncated stay: %v", ld)
	}
}

func TestTTDirectMoveBlocked(t *testing.T) {
	// travelingTime(0, 1, 3) must also block the direct move 0 -> 1
	// (DESIGN.md §3: Definition 2 semantics).
	ic := constraints.NewSet()
	if err := ic.AddTT(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	ls := FromDistributions([][]float64{
		{0.5, 0.25, 0.25},
		{0.5, 0.25, 0.25},
	})
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dist["0,1"]; ok {
		t.Errorf("direct move violating TT survived: %v", dist)
	}
	if len(dist) != 8 {
		t.Errorf("got %d trajectories, want 8 (9 minus the blocked one)", len(dist))
	}
}

func TestTTThroughIntermediate(t *testing.T) {
	// travelingTime(0, 2, 3): 0 at τ=0 and 2 at τ=2 is invalid (gap 2),
	// but 2 at τ=3 is fine.
	ic := constraints.NewSet()
	if err := ic.AddTT(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	uniform3 := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	ls := FromDistributions([][]float64{uniform3, uniform3, uniform3, uniform3})
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(200)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dist["0,1,2,2"]; ok {
		t.Errorf("gap-2 TT violation survived")
	}
	if _, ok := dist["0,1,1,2"]; !ok {
		t.Errorf("gap-3 trajectory missing")
	}
	// Check agreement with the oracle for this exact scenario.
	res, err := EnumerateConditioned(ls, ic, constraints.StrictEnd, 1000)
	if err != nil {
		t.Fatal(err)
	}
	oracleDist := res.Distribution()
	if len(oracleDist) != len(dist) {
		t.Fatalf("graph has %d trajectories, oracle %d", len(dist), len(oracleDist))
	}
	for k, p := range oracleDist {
		if math.Abs(dist[k]-p) > 1e-9 {
			t.Errorf("dist[%s] = %v, oracle %v", k, dist[k], p)
		}
	}
}

func TestNodeMergingAcrossPredecessors(t *testing.T) {
	// Two predecessors reaching the same (τ, l, δ, TL) tuple must share a
	// single node.
	ls := FromDistributions([][]float64{
		{0.5, 0.5}, // locations 0, 1
		{0, 0, 1},  // both move to location 2
	})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Level(1).Width(); n != 1 {
		t.Fatalf("expected merged successor, got %d nodes", n)
	}
	if ins := g.inDegrees(0)[0]; ins != 2 {
		t.Errorf("merged node has %d in-edges, want 2", ins)
	}
}

func TestTLDistinguishesNodes(t *testing.T) {
	// Same (τ, l) but different TT history must create distinct nodes:
	// leaving 0 vs leaving 1 toward location 2, with TT constraints from
	// both 0 and 1.
	ic := constraints.NewSet()
	if err := ic.AddTT(0, 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := ic.AddTT(1, 3, 5); err != nil {
		t.Fatal(err)
	}
	ls := FromDistributions([][]float64{
		{0.5, 0.5},       // 0 or 1
		{0, 0, 1},        // everyone moves to 2
		{0, 0, 0.5, 0.5}, // 2 or 3; 3 is TT-blocked from both histories
	})
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Level(1).Width(); n != 2 {
		t.Fatalf("TL histories merged: %d nodes at τ=1, want 2", n)
	}
	dist, err := g.conditionedDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	for k := range dist {
		if k == "0,2,3" || k == "1,2,3" {
			t.Errorf("TT-blocked trajectory %s survived", k)
		}
	}
}

func TestTLExpiry(t *testing.T) {
	// After maxTT(0) timestamps, the TL entry for 0 must be dropped so
	// nodes re-merge (keeps the graph small).
	ic := constraints.NewSet()
	if err := ic.AddTT(0, 9, 2); err != nil { // tiny horizon: expires fast
		t.Fatal(err)
	}
	ls := FromDistributions([][]float64{
		{0.5, 0.5}, // 0 or 1
		{0, 0, 1},  // move to 2
		{0, 0, 1},  // stay at 2
		{0, 0, 1},  // stay at 2
	})
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At τ=1 the histories differ (entry (0,0) alive: 1-0 < 2).
	if n := g.Level(1).Width(); n != 2 {
		t.Fatalf("nodes at τ=1 = %d, want 2", n)
	}
	// At τ=2, 2-0 >= 2: entry expired, nodes merge.
	if n := g.Level(2).Width(); n != 1 {
		t.Errorf("nodes at τ=2 = %d, want 1 (TL entry should expire)", n)
	}
}

func TestConditioningRatiosPreserved(t *testing.T) {
	// §3.1: conditioning preserves the probability ratios of surviving
	// trajectories. Kill one of three trajectories and check ratios.
	ic := constraints.NewSet()
	ic.AddDU(2, 0)
	ls := FromDistributions([][]float64{
		{0.5, 0.3, 0.2},
		{1},
	})
	// Trajectories: (0,0) p=.5, (1,0) p=.3, (2,0) p=.2 — last one dies.
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist["0,0"]-0.5/0.8) > 1e-12 || math.Abs(dist["1,0"]-0.3/0.8) > 1e-12 {
		t.Errorf("dist = %v", dist)
	}
	ratio := dist["0,0"] / dist["1,0"]
	if math.Abs(ratio-0.5/0.3) > 1e-9 {
		t.Errorf("ratio = %v, want %v", ratio, 0.5/0.3)
	}
}

func TestOracleLimit(t *testing.T) {
	uniform2 := []float64{0.5, 0.5}
	ls := FromDistributions([][]float64{uniform2, uniform2, uniform2, uniform2})
	if _, err := EnumerateConditioned(ls, nil, constraints.StrictEnd, 3); err == nil {
		t.Errorf("oracle limit not enforced")
	}
}

func TestPriorProbabilityAndCounts(t *testing.T) {
	ls, _ := runningExample(t)
	if n := ls.NumTrajectories(); n != 8 {
		t.Errorf("NumTrajectories = %v", n)
	}
	if n := ls.NumLocations(); n != 6 {
		t.Errorf("NumLocations = %v", n)
	}
	p := ls.PriorProbability([]int{l1, l3, l3})
	if math.Abs(p-3.0/5*1.0/3*2.0/3) > 1e-12 {
		t.Errorf("PriorProbability = %v", p)
	}
	if ls.PriorProbability([]int{l1, l1, l1}) != 0 {
		t.Errorf("impossible trajectory has non-zero prior")
	}
	if ls.PriorProbability([]int{l1}) != 0 {
		t.Errorf("wrong-length trajectory has non-zero prior")
	}
}

func TestLSequenceValidate(t *testing.T) {
	cases := []struct {
		name string
		ls   *LSequence
		ok   bool
	}{
		{"nil", nil, false},
		{"empty", &LSequence{}, false},
		{"no candidates", &LSequence{Steps: []Step{{}}}, false},
		{"negative prob", &LSequence{Steps: []Step{{Candidates: []Candidate{{0, -0.5}, {1, 1.5}}}}}, false},
		{"negative loc", &LSequence{Steps: []Step{{Candidates: []Candidate{{-1, 1}}}}}, false},
		{"duplicate loc", &LSequence{Steps: []Step{{Candidates: []Candidate{{0, 0.5}, {0, 0.5}}}}}, false},
		{"not normalized", &LSequence{Steps: []Step{{Candidates: []Candidate{{0, 0.5}}}}}, false},
		{"good", FromDistributions([][]float64{{0.25, 0.75}}), true},
	}
	for _, c := range cases {
		err := c.ls.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestSingleTimestamp(t *testing.T) {
	ls := FromDistributions([][]float64{{0.25, 0.75}})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist["0"]-0.25) > 1e-12 || math.Abs(dist["1"]-0.75) > 1e-12 {
		t.Errorf("dist = %v", dist)
	}
	if err := g.CheckInvariants(1e-9); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestSingleTimestampWithLatencyStrict(t *testing.T) {
	// A 1-step window with latency(0, 2): under strict semantics the stay
	// at 0 cannot complete, so only location 1 survives.
	ic := constraints.NewSet()
	ic.AddLT(0, 2)
	ls := FromDistributions([][]float64{{0.25, 0.75}})
	g, err := Build(ls, ic, &Options{EndLatency: constraints.StrictEnd})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.conditionedDistribution(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || math.Abs(dist["1"]-1) > 1e-12 {
		t.Errorf("dist = %v", dist)
	}
}
