package core

import (
	"testing"

	"repro/internal/constraints"
)

// buildUnderflowIsland builds the regression scenario for the ghost-node bug:
// location 1 is an isolated island (unreachable from and to 0/2), so a
// trajectory starting there must stay there for the whole window. Over a
// long window the island chain's survival ratio relative to the rest of the
// level shrinks geometrically (0.1 vs 0.9 per step), so the per-level
// rescaled survival of the island nodes eventually underflows to zero and
// the backward phase removes an interior node that still has out-edges.
func buildUnderflowIsland(t *testing.T) *Graph {
	t.Helper()
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
	g, err := Build(FromDistributions(dists), ic, &Options{EndLatency: constraints.StrictEnd})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNoGhostNodesAfterUnderflowPruning is the regression test for the
// backward-phase pruning bug: removing a node whose survival underflowed to
// zero used to leave its out-edges dangling in the successors' in lists, and
// the successor chain — now unreachable from every source — survived
// compact() as hundreds of ghost nodes. With the fix (detachRemoved unlinks
// both edge directions and scrubOrphans cascades the removal forward) the
// graph must satisfy every structural invariant, including reachability.
func TestNoGhostNodesAfterUnderflowPruning(t *testing.T) {
	g := buildUnderflowIsland(t)
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
