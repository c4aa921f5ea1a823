package core

import (
	"bytes"
	"testing"

	"repro/internal/constraints"
)

// underflowIsland is the regression scenario for the ghost-node bug:
// location 1 is an isolated island (unreachable from and to 0/2), so a
// trajectory starting there must stay there for the whole window. Over a
// long window the island chain's survival ratio relative to the rest of the
// level shrinks geometrically (0.1 vs 0.9 per step), so the per-level
// rescaled survival of the island nodes eventually underflows to zero and
// the backward phase removes an interior node that still has out-arcs. It
// is the only scenario in the tests where a node dies by underflow.
func underflowIsland() (*LSequence, *constraints.Set) {
	const duration = 400
	dists := make([][]float64, duration)
	for i := range dists {
		dists[i] = []float64{0.45, 0.1, 0.45}
	}
	ic := constraints.NewSet()
	ic.AddDU(1, 0)
	ic.AddDU(1, 2)
	ic.AddDU(0, 1)
	ic.AddDU(2, 1)
	return FromDistributions(dists), ic
}

// TestNoGhostNodesAfterUnderflowPruning is the regression test for the
// backward-phase pruning bug: the island nodes after the one that died by
// underflow keep a positive survival, because the backward sweep visits
// levels last to first, but no surviving node has an arc into them. They
// used to survive into the graph as hundreds of ghost nodes. Numbering the
// levels first to last drops them, so the graph must satisfy every
// structural invariant, including reachability. A BuildState smoothing the
// same readings before the island underflows, once it does, and at the
// last two readings must encode byte for byte like Build over each prefix.
func TestNoGhostNodesAfterUnderflowPruning(t *testing.T) {
	ls, ic := underflowIsland()
	opts := &Options{EndLatency: constraints.StrictEnd}
	g, err := Build(ls, ic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		t.Fatalf("graph contains ghosts or dangling edges: %v", err)
	}
	// The island dies by underflow partway through the window, so late
	// levels must contain only the two mainland locations.
	last := g.Level(g.Duration() - 1)
	for i := 0; i < last.Width(); i++ {
		if last.Loc(i) == 1 {
			t.Fatalf("unreachable island node %d survived at the final timestamp", i)
		}
	}
	m, err := g.Marginals(3)
	if err != nil {
		t.Fatal(err)
	}
	for tau, row := range m {
		sum := row[0] + row[1] + row[2]
		if sum < 1-1e-6 || sum > 1+1e-6 {
			t.Fatalf("marginal mass at %d = %v", tau, sum)
		}
	}

	st := NewBuildState(ic)
	for k, step := range ls.Steps {
		if err := st.Observe(step.Candidates); err != nil {
			t.Fatal(err)
		}
		n := k + 1
		if n != 100 && n != 350 && n != ls.Duration()-1 && n != ls.Duration() {
			continue
		}
		var ex BuildExplain
		got, err := st.Smooth(&Options{EndLatency: opts.EndLatency, Explain: &ex})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(prefixLS(ls, n), ic, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("smooth at %d encodes unlike Build over the prefix", n)
		}
		if n == ls.Duration() && (ex.GhostsRemoved == 0 || ex.BackwardRemoved == 0) {
			t.Fatalf("the last smooth dropped %d ghosts and removed %d nodes; want both positive",
				ex.GhostsRemoved, ex.BackwardRemoved)
		}
	}
}

// TestCheckInvariantsDetectsGhosts corrupts well-formed graphs the way the
// seed bug used to and checks CheckInvariants rejects every shape.
func TestCheckInvariantsDetectsGhosts(t *testing.T) {
	two := func() *Graph { return mustBuild(t, FromDistributions([][]float64{{0.5, 0.5}, {0.5, 0.5}})) }
	// Two sources fanning out to two targets, plus a third target, the
	// ghost: alive and listed, but no arc leads to it.
	ghost := &Graph{
		levelOff: []int32{0, 2, 5},
		loc:      []int32{0, 1, 0, 1, 3},
		src:      []float64{0.5, 0.5},
		arcOff:   []int32{0, 2, 4, 4, 4, 4},
		to:       []int32{0, 1, 0, 1},
		p:        []float64{0.5, 0.5, 0.5, 0.5},
	}
	if err := ghost.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with an unreachable node passed invariants")
	}
	// The same graph with an arc into the ghost is well formed, which
	// shows the check above failed on the ghost alone.
	ghost.arcOff = []int32{0, 1, 3, 3, 3, 3}
	ghost.to, ghost.p = []int32{2, 0, 1}, []float64{1, 0.5, 0.5}
	if err := ghost.CheckInvariants(1e-6); err != nil {
		t.Fatalf("graph with a reachable extra node failed invariants: %v", err)
	}

	// An arc leading past the next level.
	g := two()
	g.to[0] = int32(g.Level(1).Width())
	if err := g.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with an arc out of range passed invariants")
	}

	// Inconsistent offsets.
	g3 := two()
	g3.levelOff[1]++
	if err := g3.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with wrong level offsets passed invariants")
	}
}
