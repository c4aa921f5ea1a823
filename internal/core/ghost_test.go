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
	for _, n := range g.byTime[len(g.byTime)-1] {
		if n.Loc == 1 {
			t.Fatalf("unreachable island node %v survived at the final timestamp", n)
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
// seed bug used to and checks CheckInvariants rejects both shapes.
func TestCheckInvariantsDetectsGhosts(t *testing.T) {
	// An unreachable node: alive, indexed, but with no in-edges linking it
	// to the previous level.
	g := mustBuild(t, FromDistributions([][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	ghost := &node{Time: 1, Loc: 3, idx: int32(len(g.byTime[1]))}
	// Give it an in-edge from a removed node, like the seed's dangling
	// references: the edge's From is not part of the graph.
	removed := &node{Time: 0, Loc: 3, removed: true}
	e := &edge{From: removed, To: ghost, P: 1}
	ghost.in = []*edge{e}
	g.byTime[1] = append(g.byTime[1], ghost)
	if err := g.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with a dangling in-edge from a removed node passed invariants")
	}

	// A ghost whose in-edge looks plausible but whose From is not listed at
	// the previous level.
	g2 := mustBuild(t, FromDistributions([][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	foreign := &node{Time: 0, Loc: 3, idx: 99}
	ghost2 := &node{Time: 1, Loc: 3, idx: int32(len(g2.byTime[1]))}
	e2 := &edge{From: foreign, To: ghost2, P: 1}
	ghost2.in = []*edge{e2}
	foreign.out = []*edge{e2}
	g2.byTime[1] = append(g2.byTime[1], ghost2)
	if err := g2.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with a foreign predecessor passed invariants")
	}

	// Inconsistent dense index.
	g3 := mustBuild(t, FromDistributions([][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	g3.byTime[0][0].idx = 1
	if err := g3.CheckInvariants(1e-6); err == nil {
		t.Fatalf("graph with a wrong dense index passed invariants")
	}
}
