package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// StayUntracked is the ⊥ value of a location node's stay counter: the
// location has no latency constraint, or the current stay already satisfies
// it (§4.1, fact B with the paper's normalization).
const StayUntracked = 0

// TLEntry records that the object was last at location Loc at time Time and
// that a traveling-time constraint leaving Loc may still bind (§4.1, fact C).
type TLEntry struct {
	Time int
	Loc  int
}

// node is a location node (τ, l, δ, TL) of §4.1. Two nodes with equal
// exported fields are the same node; the graph never materializes duplicates.
// Nodes and edges never leave the package: readers walk a finished graph
// through Level and Arcs.
type node struct {
	Time int       // timestamp τ
	Loc  int       // location l
	Stay int       // δ: length of the current stay while a latency constraint is pending, or StayUntracked (⊥)
	TL   []TLEntry // sorted by Loc; relevant recent leave times for TT checks; interned, do not modify

	idx int32 // dense index within the node's timestamp level

	out []*edge
	in  []*edge

	surv    float64 // surviving (valid) fraction of compatible mass, rescaled per level
	prob    float64 // p_N for source nodes
	removed bool
}

// String implements fmt.Stringer.
func (n *node) String() string {
	stay := "⊥"
	if n.Stay != StayUntracked {
		stay = strconv.Itoa(n.Stay)
	}
	var tl []string
	for _, e := range n.TL {
		tl = append(tl, fmt.Sprintf("(%d,L%d)", e.Time, e.Loc))
	}
	return fmt.Sprintf("(%d, L%d, %s, {%s})", n.Time, n.Loc, stay, strings.Join(tl, ","))
}

// edge is a ct-graph edge from a node to one of its successors, carrying the
// (initially a-priori, finally conditioned) probability p_E.
type edge struct {
	From, To *node
	P        float64
}

// Graph is a conditioned trajectory graph (Definition 4): source-to-target
// paths correspond one-to-one to valid trajectories, and the product of a
// path's source probability and edge probabilities is the conditioned
// probability of its trajectory.
type Graph struct {
	byTime [][]*node // alive nodes per timestamp; byTime[t][i].idx == i
}

// Duration returns the number of timestamps spanned by the graph.
func (g *Graph) Duration() int { return len(g.byTime) }

// Level is a read-only view of the nodes of one timestamp. A node is named
// by its dense index in [0, Width()); per-node query state lives in slices
// indexed the same way.
type Level struct{ nodes []*node }

// Level returns the view of timestamp t.
func (g *Graph) Level(t int) Level { return Level{g.byTime[t]} }

// Width returns the number of nodes at the level.
func (l Level) Width() int { return len(l.nodes) }

// Loc returns the location of node i.
func (l Level) Loc(i int) int { return l.nodes[i].Loc }

// SourceProb returns p_N of node i; only level 0 holds source nodes.
func (l Level) SourceProb(i int) float64 { return l.nodes[i].prob }

// Out returns the out-arcs of node i, in the order every pass walks them.
func (l Level) Out(i int) Arcs { return Arcs{l.nodes[i].out} }

// Arcs is a read-only view of one node's out-arcs.
type Arcs struct{ edges []*edge }

// Len returns the number of arcs.
func (a Arcs) Len() int { return len(a.edges) }

// At returns arc k: the index of its target in the next level and its
// conditioned probability p_E.
func (a Arcs) At(k int) (to int, p float64) {
	e := a.edges[k]
	return int(e.To.idx), e.P
}

// levels allocates one float64 slot per node, shaped like the graph.
func (g *Graph) levels() [][]float64 {
	out := make([][]float64, g.Duration())
	for t := range out {
		out[t] = make([]float64, g.Level(t).Width())
	}
	return out
}

// Stats summarizes the size of a ct-graph (§6.7 discusses the memory
// footprint of ct-graphs under different constraint sets).
type Stats struct {
	Nodes int
	Edges int
	// Bytes estimates the in-memory footprint: node struct + TL entries +
	// edge structs + adjacency slots.
	Bytes int
}

// Stats returns size statistics for the graph.
func (g *Graph) Stats() Stats {
	var s Stats
	const nodeBytes = 96 // struct + slice headers, approximate
	const edgeBytes = 24 + 16
	for _, nodes := range g.byTime {
		for _, n := range nodes {
			s.Nodes++
			s.Bytes += nodeBytes + 16*len(n.TL)
			s.Edges += len(n.out)
			s.Bytes += edgeBytes * len(n.out)
		}
	}
	return s
}

// PathProbability returns the probability of the source-to-target path
// given as one node index per level: p_N of its source times the
// probabilities of the traversed arcs. It returns an error when the indices
// do not name a source-to-target path of the graph.
func (g *Graph) PathProbability(path []int) (float64, error) {
	if len(path) != g.Duration() {
		return 0, fmt.Errorf("core: path has %d nodes, graph spans %d timestamps", len(path), g.Duration())
	}
	for t, i := range path {
		if w := g.Level(t).Width(); i < 0 || i >= w {
			return 0, fmt.Errorf("core: path names node %d at timestamp %d, which has %d", i, t, w)
		}
	}
	p := g.Level(0).SourceProb(path[0])
	for t := 0; t+1 < len(path); t++ {
		arcs, found := g.Level(t).Out(path[t]), false
		for k := 0; k < arcs.Len() && !found; k++ {
			if to, pe := arcs.At(k); to == path[t+1] {
				p *= pe
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("core: no arc from node %d at timestamp %d to node %d", path[t], t, path[t+1])
		}
	}
	return p, nil
}

// WalkPaths calls fn for every source-to-target path, given as one node
// index per level, with its conditioned probability, stopping early (with
// an error) after more than limit paths. Each invocation receives a freshly
// allocated path slice that the callback may retain. WalkPaths is intended
// for tests and small graphs; real consumers should use Marginals, queries,
// sampling or MostProbable instead.
func (g *Graph) WalkPaths(limit int, fn func(path []int, p float64)) error {
	count, last := 0, g.Duration()-1
	path := make([]int, g.Duration())
	var rec func(t, i int, p float64) error
	rec = func(t, i int, p float64) error {
		path[t] = i
		if t == last {
			count++
			if count > limit {
				return fmt.Errorf("core: more than %d paths", limit)
			}
			fn(append([]int(nil), path...), p)
			return nil
		}
		arcs := g.Level(t).Out(i)
		for k := 0; k < arcs.Len(); k++ {
			to, pe := arcs.At(k)
			if err := rec(t+1, to, p*pe); err != nil {
				return err
			}
		}
		return nil
	}
	src := g.Level(0)
	for i := 0; i < src.Width(); i++ {
		if err := rec(0, i, src.SourceProb(i)); err != nil {
			return err
		}
	}
	return nil
}

// TrajectoryKey renders a location sequence as a canonical map key.
func TrajectoryKey(locs []int) string {
	var b strings.Builder
	for i, l := range locs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(l))
	}
	return b.String()
}

// Forward returns, for every node, the total probability of source-prefixes
// reaching it: alpha[t][i] = Σ over partial paths from a source to node i of
// level t of the product of the source probability and arc probabilities.
func (g *Graph) Forward() [][]float64 {
	alpha := g.levels()
	src := g.Level(0)
	for i := range alpha[0] {
		alpha[0][i] = src.SourceProb(i)
	}
	for t := 0; t+1 < g.Duration(); t++ {
		lvl, row, next := g.Level(t), alpha[t], alpha[t+1]
		for i, a := range row {
			arcs := lvl.Out(i)
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				next[to] += a * p
			}
		}
	}
	return alpha
}

// Backward returns, for every node, the total probability of suffixes from
// it to a target: beta[t][i] = Σ over partial paths from node i of level t
// to a target of the product of arc probabilities (1 for targets).
func (g *Graph) Backward() [][]float64 {
	beta := g.levels()
	last := g.Duration() - 1
	for i := range beta[last] {
		beta[last][i] = 1
	}
	for t := last - 1; t >= 0; t-- {
		lvl, row, next := g.Level(t), beta[t], beta[t+1]
		for i := range row {
			arcs := lvl.Out(i)
			var b float64
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				b += p * next[to]
			}
			row[i] = b
		}
	}
	return beta
}

// LocationMass folds level t into a fresh distribution over numLocations
// locations: out[l] sums α·β of the level's nodes at l, in index order.
// Every marginal-based answer (stay queries, Marginals, events) sums
// through it, so they all associate the same floats the same way. It
// returns an error when a location falls outside [0, numLocations).
func (g *Graph) LocationMass(t int, alpha, beta [][]float64, numLocations int) ([]float64, error) {
	lvl, a, b := g.Level(t), alpha[t], beta[t]
	out := make([]float64, numLocations)
	for i := range a {
		loc := lvl.Loc(i)
		if uint(loc) >= uint(numLocations) {
			return nil, fmt.Errorf("core: location ID %d at timestamp %d outside [0, %d)", loc, t, numLocations)
		}
		out[loc] += a[i] * b[i]
	}
	return out, nil
}

// Marginals returns, for each timestamp, the conditioned distribution over
// locations: out[τ][l] is the probability that the object was at location l
// at time τ given the readings and the constraints. numLocations sizes the
// rows; it returns an error when the graph mentions a location ID outside
// [0, numLocations).
func (g *Graph) Marginals(numLocations int) ([][]float64, error) {
	alpha, beta := g.Forward(), g.Backward()
	out := make([][]float64, g.Duration())
	for t := range out {
		var err error
		if out[t], err = g.LocationMass(t, alpha, beta, numLocations); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MostProbable returns the valid trajectory with the highest conditioned
// probability and that probability (Viterbi decoding over the ct-graph).
func (g *Graph) MostProbable() ([]int, float64) {
	if g.Duration() == 0 {
		return nil, 0
	}
	best := g.levels()
	back := make([][]int32, g.Duration())
	for t := 1; t < g.Duration(); t++ {
		back[t] = make([]int32, len(best[t]))
	}
	src := g.Level(0)
	for i := range best[0] {
		best[0][i] = src.SourceProb(i)
	}
	for t := 0; t+1 < g.Duration(); t++ {
		lvl, row, next, nb := g.Level(t), best[t], best[t+1], back[t+1]
		for i, b := range row {
			if b == 0 {
				continue
			}
			arcs := lvl.Out(i)
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				if v := b * p; v > next[to] {
					next[to] = v
					nb[to] = int32(i)
				}
			}
		}
	}
	last := g.Duration() - 1
	argmax := int32(-1)
	bestP := 0.0
	for i, p := range best[last] {
		if p > bestP {
			bestP = p
			argmax = int32(i)
		}
	}
	if argmax < 0 {
		return nil, 0
	}
	locs := make([]int, g.Duration())
	for t, i := last, argmax; ; t, i = t-1, back[t][i] {
		locs[t] = g.Level(t).Loc(int(i))
		if t == 0 {
			break
		}
	}
	return locs, bestP
}

// Sample draws a valid trajectory from the conditioned distribution. Because
// edge probabilities are already conditioned, a simple ancestral walk from a
// source suffices — the property §7 highlights as an advantage of ct-graphs
// over rejection-style "sampling under constraints".
func (g *Graph) Sample(rng *stats.RNG) []int {
	src := g.Level(0)
	weights := make([]float64, src.Width())
	for i := range weights {
		weights[i] = src.SourceProb(i)
	}
	i := rng.Pick(weights)
	if i < 0 {
		return nil
	}
	locs := make([]int, 0, g.Duration())
	locs = append(locs, src.Loc(i))
	for t := 0; t+1 < g.Duration(); t++ {
		arcs := g.Level(t).Out(i)
		w := make([]float64, arcs.Len())
		for k := range w {
			_, w[k] = arcs.At(k)
		}
		k := rng.Pick(w)
		if k < 0 {
			return nil // defensive: dead end cannot happen in a well-formed graph
		}
		i, _ = arcs.At(k)
		locs = append(locs, g.Level(t+1).Loc(i))
	}
	return locs
}

// CheckInvariants verifies the structural invariants of a well-formed
// ct-graph: per-node outgoing probabilities sum to 1 (non-targets), source
// probabilities sum to 1, dense per-level indices match node positions, edge
// endpoints agree on adjacency (no dangling in-edges from removed or foreign
// nodes, and out/in edge counts balance between consecutive levels), and
// every node lies on some source-to-target path (no unreachable ghosts). It
// is used by tests and by Decode and returns the first violation found.
func (g *Graph) CheckInvariants(tol float64) error {
	if g.Duration() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	var srcSum float64
	for _, s := range g.byTime[0] {
		srcSum += s.prob
	}
	if math.Abs(srcSum-1) > tol {
		return fmt.Errorf("core: source probabilities sum to %g", srcSum)
	}
	outEdges := 0 // edges leaving the previous level
	for t, nodes := range g.byTime {
		if len(nodes) == 0 {
			return fmt.Errorf("core: no nodes at timestamp %d", t)
		}
		inEdges := 0
		for i, n := range nodes {
			if n.removed {
				return fmt.Errorf("core: removed node %v still listed", n)
			}
			if int(n.idx) != i {
				return fmt.Errorf("core: node %v has index %d but sits at position %d", n, n.idx, i)
			}
			if n.Time != t {
				return fmt.Errorf("core: node %v listed at timestamp %d", n, t)
			}
			if t < g.Duration()-1 {
				if len(n.out) == 0 {
					return fmt.Errorf("core: non-target node %v has no successors", n)
				}
				var sum float64
				for _, e := range n.out {
					if e.From != n {
						return fmt.Errorf("core: edge list corruption at %v", n)
					}
					if e.P <= 0 || e.P > 1+tol {
						return fmt.Errorf("core: edge %v->%v has probability %g", e.From, e.To, e.P)
					}
					sum += e.P
				}
				if math.Abs(sum-1) > tol {
					return fmt.Errorf("core: out-probabilities of %v sum to %g", n, sum)
				}
			}
			if t > 0 && len(n.in) == 0 {
				return fmt.Errorf("core: non-source node %v has no predecessors", n)
			}
			inEdges += len(n.in)
			for _, e := range n.in {
				if e.To != n {
					return fmt.Errorf("core: in-edge list corruption at %v", n)
				}
				from := e.From
				if from == nil || from.removed {
					return fmt.Errorf("core: node %v has a dangling in-edge from removed node %v", n, from)
				}
				if t == 0 || from.Time != t-1 || int(from.idx) >= len(g.byTime[t-1]) || g.byTime[t-1][from.idx] != from {
					return fmt.Errorf("core: node %v has an in-edge from %v, which is not an alive node of the previous level", n, from)
				}
			}
		}
		if t > 0 && inEdges != outEdges {
			return fmt.Errorf("core: level %d has %d in-edges but level %d has %d out-edges", t, inEdges, t-1, outEdges)
		}
		outEdges = 0
		for _, n := range nodes {
			outEdges += len(n.out)
		}
	}
	// Every node must be reachable from a source (no ghosts left behind by
	// pruning). Reachability is tracked explicitly rather than via alpha > 0
	// so that probability underflow on long windows cannot mask a ghost (or
	// flag a legitimate node).
	reach := make([][]bool, g.Duration())
	for t := range reach {
		reach[t] = make([]bool, len(g.byTime[t]))
	}
	for i := range g.byTime[0] {
		reach[0][i] = true
	}
	for t := 0; t+1 < g.Duration(); t++ {
		for _, n := range g.byTime[t] {
			if !reach[t][n.idx] {
				continue
			}
			for _, e := range n.out {
				reach[t+1][e.To.idx] = true
			}
		}
	}
	for t, nodes := range g.byTime {
		for _, n := range nodes {
			if !reach[t][n.idx] {
				return fmt.Errorf("core: node %v is unreachable from every source", n)
			}
		}
	}
	// Marginal mass must be 1 at every timestamp.
	alpha := g.Forward()
	beta := g.Backward()
	for t, nodes := range g.byTime {
		var mass float64
		for _, n := range nodes {
			mass += alpha[t][n.idx] * beta[t][n.idx]
		}
		if math.Abs(mass-1) > tol {
			return fmt.Errorf("core: probability mass at timestamp %d is %g", t, mass)
		}
	}
	return nil
}

// sortTL keeps TL entries in canonical order (by location). TLs hold at most
// one entry per TT-source location, so insertion sort beats sort.Slice here
// and keeps the Build hot path free of its closure allocations.
func sortTL(tl []TLEntry) {
	for i := 1; i < len(tl); i++ {
		for j := i; j > 0 && tl[j].Loc < tl[j-1].Loc; j-- {
			tl[j], tl[j-1] = tl[j-1], tl[j]
		}
	}
}
