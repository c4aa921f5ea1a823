package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

func buildSimple(t *testing.T) *Graph {
	t.Helper()
	ls := FromDistributions([][]float64{
		{0.6, 0.4},
		{0.5, 0.5},
	})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathLocations returns the location sequence of a path given as one node
// index per level.
func (g *Graph) pathLocations(path []int) []int {
	locs := make([]int, len(path))
	for t, i := range path {
		locs[t] = g.Level(t).Loc(i)
	}
	return locs
}

// conditionedDistribution enumerates every valid trajectory with its
// conditioned probability, keyed by the comma-separated location sequence.
// It fails beyond limit paths.
func (g *Graph) conditionedDistribution(limit int) (map[string]float64, error) {
	out := make(map[string]float64)
	err := g.WalkPaths(limit, func(path []int, p float64) {
		out[TrajectoryKey(g.pathLocations(path))] += p
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestGraphAccessors(t *testing.T) {
	g := buildSimple(t)
	if g.Duration() != 2 {
		t.Errorf("Duration = %d", g.Duration())
	}
	if len(g.byTime[0]) != 2 || len(g.byTime[len(g.byTime)-1]) != 2 {
		t.Errorf("sources/targets = %d/%d", len(g.byTime[0]), len(g.byTime[len(g.byTime)-1]))
	}
	s := g.Stats()
	if s.Nodes != 4 || s.Edges != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Bytes <= 0 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
}

func TestPathProbability(t *testing.T) {
	g := buildSimple(t)
	src := g.Level(0)
	dst, pe := src.Out(0).At(0)
	p, err := g.PathProbability([]int{0, dst})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-src.SourceProb(0)*pe) > 1e-12 {
		t.Errorf("PathProbability = %v", p)
	}
	if _, err := g.PathProbability([]int{0}); err == nil {
		t.Errorf("short path accepted")
	}
	if _, err := g.PathProbability([]int{0, 2}); err == nil {
		t.Errorf("out-of-range node index accepted")
	}
	if _, err := g.PathProbability([]int{-1, 0}); err == nil {
		t.Errorf("negative node index accepted")
	}
	// Disconnected pair: DU forbids 0 -> 1, so the L0 source has no arc to
	// the L1 node of the next level.
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	g, err = Build(FromDistributions([][]float64{{0.6, 0.4}, {0.5, 0.5}}), ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	from, to := -1, -1
	for i := 0; i < g.Level(0).Width(); i++ {
		if g.Level(0).Loc(i) == 0 {
			from = i
		}
	}
	for i := 0; i < g.Level(1).Width(); i++ {
		if g.Level(1).Loc(i) == 1 {
			to = i
		}
	}
	if from < 0 || to < 0 {
		t.Fatalf("graph lacks the L0 source or the L1 successor")
	}
	if _, err := g.PathProbability([]int{from, to}); err == nil {
		t.Errorf("non-edge accepted")
	}
}

func TestWalkPathsLimit(t *testing.T) {
	g := buildSimple(t)
	if err := g.WalkPaths(2, func([]int, float64) {}); err == nil {
		t.Errorf("limit not enforced (4 paths, limit 2)")
	}
	count := 0
	if err := g.WalkPaths(10, func([]int, float64) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("walked %d paths, want 4", count)
	}
}

func TestForwardBackwardMass(t *testing.T) {
	ls := FromDistributions([][]float64{
		{0.5, 0.5},
		{0.25, 0.75},
		{1},
	})
	ic := constraints.NewSet()
	ic.AddDU(1, 0)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	alpha := g.Forward()
	beta := g.Backward()
	for tau := 0; tau < g.Duration(); tau++ {
		var mass float64
		for _, n := range g.byTime[tau] {
			mass += alpha[tau][int(n.idx)] * beta[tau][int(n.idx)]
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("mass at %d = %v", tau, mass)
		}
	}
}

func TestMarginalsSumToOne(t *testing.T) {
	ls, ic := runningExample(t)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Marginals(6)
	if err != nil {
		t.Fatal(err)
	}
	for tau, row := range m {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("marginals at %d sum to %v", tau, sum)
		}
	}
	// Running example: the object is at L1 then L3, L3 with certainty.
	if m[0][l1] != 1 || m[1][l3] != 1 || m[2][l3] != 1 {
		t.Errorf("marginals = %v", m)
	}
}

func TestNodeString(t *testing.T) {
	n := &node{Time: 3, Loc: 2, Stay: StayUntracked, TL: []TLEntry{{Time: 1, Loc: 0}}}
	s := n.String()
	if !strings.Contains(s, "L2") || !strings.Contains(s, "⊥") || !strings.Contains(s, "(1,L0)") {
		t.Errorf("String = %q", s)
	}
	n.Stay = 2
	if !strings.Contains(n.String(), "2") {
		t.Errorf("String = %q", n.String())
	}
}

func TestNodeKeyDistinguishes(t *testing.T) {
	in := newTLInterner()
	key := func(loc, stay int, tl []TLEntry) nodeKey {
		return nodeKey{loc: int32(loc), stay: int32(stay), tl: in.intern(tl)}
	}
	a := key(2, 1, nil)
	b := key(2, StayUntracked, nil)
	if a == b {
		t.Errorf("keys should differ on stay counter")
	}
	c := key(2, 1, []TLEntry{{Time: 0, Loc: 5}})
	if a == c {
		t.Errorf("keys should differ on TL")
	}
	d := key(2, 1, []TLEntry{{Time: 0, Loc: 5}})
	if c != d {
		t.Errorf("identical nodes should share a key")
	}
	// Same locations at different leave times are different histories.
	e := key(2, 1, []TLEntry{{Time: 1, Loc: 5}})
	if c == e {
		t.Errorf("keys should differ on TL leave time")
	}
}

func TestTLInternerCanonicalizes(t *testing.T) {
	in := newTLInterner()
	tl := []TLEntry{{Time: 3, Loc: 1}, {Time: 5, Loc: 4}}
	id := in.intern(tl)
	// Mutating the caller's slice must not affect the canonical copy.
	tl[0] = TLEntry{Time: 9, Loc: 9}
	again := in.intern([]TLEntry{{Time: 3, Loc: 1}, {Time: 5, Loc: 4}})
	if id != again {
		t.Errorf("equal TLs interned to %d and %d", id, again)
	}
	seq := in.seq(id)
	if len(seq) != 2 || seq[0] != (TLEntry{Time: 3, Loc: 1}) || seq[1] != (TLEntry{Time: 5, Loc: 4}) {
		t.Errorf("canonical seq = %v", seq)
	}
	if in.intern(nil) != 0 {
		t.Errorf("empty TL should intern to ID 0")
	}
	if in.size() == 0 {
		t.Errorf("interner reports zero size after interning")
	}
	// A proper prefix is a distinct ID sharing the chain.
	pre := in.intern([]TLEntry{{Time: 3, Loc: 1}})
	if pre == id || len(in.seq(pre)) != 1 {
		t.Errorf("prefix interning broken: pre=%d id=%d seq=%v", pre, id, in.seq(pre))
	}
}

func TestNodeIndexMatchesPosition(t *testing.T) {
	ls, ic := runningExample(t)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 0; tau < g.Duration(); tau++ {
		for i, n := range g.byTime[tau] {
			if int(n.idx) != i {
				t.Errorf("node %v at position %d has Index %d", n, i, int(n.idx))
			}
		}
	}
}

func TestSampleSingleton(t *testing.T) {
	ls := FromDistributions([][]float64{{0, 1}})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	locs := g.Sample(rng)
	if len(locs) != 1 || locs[0] != 1 {
		t.Errorf("Sample = %v", locs)
	}
}

func TestMostProbableSimple(t *testing.T) {
	g := buildSimple(t)
	locs, p := g.MostProbable()
	// Highest-prob path: source 0 (0.6) then either (0.5 each) -> 0.3.
	if math.Abs(p-0.3) > 1e-12 {
		t.Errorf("MostProbable p = %v", p)
	}
	if locs[0] != 0 {
		t.Errorf("MostProbable start = %d", locs[0])
	}
}

func TestTrajectoryKeyAndTrajectory(t *testing.T) {
	if TrajectoryKey([]int{1, 2, 3}) != "1,2,3" {
		t.Errorf("TrajectoryKey wrong")
	}
	if TrajectoryKey(nil) != "" {
		t.Errorf("empty TrajectoryKey wrong")
	}
	g := buildSimple(t)
	to, _ := g.Level(0).Out(0).At(0)
	locs := g.pathLocations([]int{0, to})
	if len(locs) != 2 || locs[0] != g.Level(0).Loc(0) || locs[1] != g.Level(1).Loc(to) {
		t.Errorf("pathLocations = %v", locs)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	g := buildSimple(t)
	// Corrupt an edge probability.
	g.byTime[0][0].out[0].P = 0.9
	if err := g.CheckInvariants(1e-9); err == nil {
		t.Errorf("corrupted graph passed invariants")
	}
	if err := (&Graph{}).CheckInvariants(1e-9); err == nil {
		t.Errorf("empty graph passed invariants")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	if o.endLatency() != constraints.StrictEnd {
		t.Errorf("nil end latency = %v", o.endLatency())
	}
	o = &Options{EndLatency: constraints.LenientEnd}
	if o.endLatency() != constraints.LenientEnd {
		t.Errorf("options not honored")
	}
}
