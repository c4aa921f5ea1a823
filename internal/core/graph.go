package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

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

// Graph is a conditioned trajectory graph (Definition 4): source-to-target
// paths correspond one-to-one to valid trajectories, and the product of a
// path's source probability and edge probabilities is the conditioned
// probability of its trajectory.
//
// A Graph is frozen: Build, BuildState.Smooth, Quotient and Decode write it
// once and nothing modifies it afterwards, so it is safe to share. It holds
// no pointer per node or per arc. Nodes are numbered level by level, a
// node's dense index within its level is its number minus the level's
// offset, and every column is one flat array (compressed sparse rows), so
// the garbage collector never scans a graph's contents. The graph a build
// works on has the same columns and grows them a level at a time (see
// builder); it never leaves the package.
type Graph struct {
	levelOff []int32   // level t holds nodes levelOff[t] to levelOff[t+1]-1
	loc      []int32   // location of each node
	arcOff   []int32   // node n's out-arcs are arcOff[n] to arcOff[n+1]-1
	to       []int32   // each arc's target, as a dense index in the next level
	p        []float64 // each arc's conditioned probability p_E
	src      []float64 // p_N of each node of level 0

	// Algorithm 1's node identity (§4.1): δ of each node, and node n's TL
	// is tl[tlOff[n]:tlOff[n+1]]. All three are empty when every node has
	// δ = ⊥ and an empty TL, as in every quotient.
	stay  []int32
	tlOff []int32
	tl    []TLEntry
}

// Duration returns the number of timestamps spanned by the graph.
func (g *Graph) Duration() int { return max(len(g.levelOff)-1, 0) }

// Level is a read-only view of the nodes of one timestamp. A node is named
// by its dense index in [0, Width()); per-node query state lives in slices
// indexed the same way. A Level, like an Arcs, is two words, so the passes
// keep both in registers.
type Level struct {
	g      *Graph
	lo, hi int32 // the level's nodes are numbered lo to hi-1
}

// Level returns the view of timestamp t.
func (g *Graph) Level(t int) Level { return Level{g, g.levelOff[t], g.levelOff[t+1]} }

// Width returns the number of nodes at the level.
func (l Level) Width() int { return int(l.hi - l.lo) }

// Column returns the level's part of a node column (one entry per node of
// the graph, as Forward and Backward return), indexed by dense index.
func (l Level) Column(col []float64) []float64 { return col[l.lo:l.hi:l.hi] }

// Widest returns the number of nodes of the graph's widest level, the row
// length a pass that keeps one row per level needs.
func (g *Graph) Widest() int {
	w := 0
	for t := range g.Duration() {
		w = max(w, g.Level(t).Width())
	}
	return w
}

// Loc returns the location of node i.
func (l Level) Loc(i int) int {
	if uint(i) >= uint(l.hi-l.lo) {
		panic(errNodeRange)
	}
	return int(l.g.loc[int(l.lo)+i])
}

// SourceProb returns p_N of node i; only level 0 holds source nodes, and
// every other level answers 0.
func (l Level) SourceProb(i int) float64 {
	if l.lo != 0 {
		return 0
	}
	return l.g.src[i]
}

// Out returns the out-arcs of node i, in the order every pass walks them.
func (l Level) Out(i int) Arcs {
	if uint(i) >= uint(l.hi-l.lo) {
		panic(errNodeRange)
	}
	n := int(l.lo) + i
	return Arcs{l.g, l.g.arcOff[n], l.g.arcOff[n+1]}
}

// Arcs is a read-only view of one node's out-arcs.
type Arcs struct {
	g    *Graph
	a, b int32 // the arcs are numbered a to b-1
}

// Len returns the number of arcs.
func (a Arcs) Len() int { return int(a.b - a.a) }

// At returns arc k: the index of its target in the next level and its
// conditioned probability p_E.
func (a Arcs) At(k int) (to int, p float64) {
	if uint(k) >= uint(a.b-a.a) {
		panic(errArcRange)
	}
	j := int(a.a) + k
	return int(a.g.to[j]), a.g.p[j]
}

var (
	errNodeRange = errors.New("core: node index out of the level's range")
	errArcRange  = errors.New("core: arc index out of the node's range")
)

// shape counts the columns of a graph before it is written.
type shape struct {
	levels, nodes, sources, arcs int
	ident                        bool // the δ and TL columns are kept
	tls                          int
}

// newGraph allocates a graph of shape s: its int32 columns share one
// allocation and its float64 columns another, each column capped at its own
// region.
func newGraph(s shape) *Graph {
	n := s.levels + 1 + 2*s.nodes + 1 + s.arcs
	if s.ident {
		n += 2*s.nodes + 1
	}
	ints, floats := make([]int32, n), make([]float64, s.sources+s.arcs)
	cut := func(n int) []int32 {
		c := ints[:n:n]
		ints = ints[n:]
		return c
	}
	g := &Graph{
		levelOff: cut(s.levels + 1),
		loc:      cut(s.nodes),
		arcOff:   cut(s.nodes + 1),
		to:       cut(s.arcs),
		src:      floats[:s.sources:s.sources],
		p:        floats[s.sources:],
	}
	if s.ident {
		g.stay, g.tlOff = cut(s.nodes), cut(s.nodes+1)
		if s.tls > 0 {
			g.tl = make([]TLEntry, s.tls)
		}
	}
	return g
}

// Stats summarizes the size of a ct-graph (§6.7 discusses the memory
// footprint of ct-graphs under different constraint sets).
type Stats struct {
	Nodes int
	Edges int
	// Bytes is the graph's memory: its header plus, for every column, its
	// length times its element size. A frozen graph owns nothing else.
	Bytes int
}

// Stats returns size statistics for the graph.
func (g *Graph) Stats() Stats {
	int32s := len(g.levelOff) + len(g.loc) + len(g.arcOff) + len(g.to) + len(g.stay) + len(g.tlOff)
	bytes := int(unsafe.Sizeof(*g)) + 4*int32s + 8*(len(g.src)+len(g.p)) +
		int(unsafe.Sizeof(TLEntry{}))*len(g.tl)
	return Stats{Nodes: len(g.loc), Edges: len(g.to), Bytes: bytes}
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

// Forward returns the node column of forward masses: alpha[n] = Σ over
// partial paths from a source to node n of the product of the source
// probability and arc probabilities. Like every node column it is indexed
// by node number; Level.Column slices one level out of it. Forward,
// Backward and TopK run under every query, so they walk the arc columns
// directly, in the order Level and Arcs give.
func (g *Graph) Forward() []float64 {
	alpha := make([]float64, len(g.loc))
	copy(alpha, g.src)
	to, p := g.to, g.p
	for t := 0; t+1 < g.Duration(); t++ {
		next := alpha[g.levelOff[t+1]:]
		for n := g.levelOff[t]; n < g.levelOff[t+1]; n++ {
			a := alpha[n]
			for k := g.arcOff[n]; k < g.arcOff[n+1]; k++ {
				next[to[k]] += a * p[k]
			}
		}
	}
	return alpha
}

// Backward returns the node column of backward masses: beta[n] = Σ over
// partial paths from node n to a target of the product of arc
// probabilities (1 for targets).
func (g *Graph) Backward() []float64 {
	beta := make([]float64, len(g.loc))
	last := g.Duration() - 1
	for n := g.levelOff[last]; n < g.levelOff[last+1]; n++ {
		beta[n] = 1
	}
	to, p := g.to, g.p
	for t := last - 1; t >= 0; t-- {
		next := beta[g.levelOff[t+1]:]
		for n := g.levelOff[t]; n < g.levelOff[t+1]; n++ {
			var b float64
			for k := g.arcOff[n]; k < g.arcOff[n+1]; k++ {
				b += p[k] * next[to[k]]
			}
			beta[n] = b
		}
	}
	return beta
}

// LocationMass folds level t into a fresh distribution over numLocations
// locations: out[l] sums α·β of the level's nodes at l, in index order,
// from the node columns Forward and Backward return. Every marginal-based
// answer (stay queries, Marginals, events) sums through it, so they all
// associate the same floats the same way. It returns an error when a
// location falls outside [0, numLocations).
func (g *Graph) LocationMass(t int, alpha, beta []float64, numLocations int) ([]float64, error) {
	lvl := g.Level(t)
	a, b := lvl.Column(alpha), lvl.Column(beta)
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
// ct-graph: the columns have consistent shapes, every level has a node,
// per-node outgoing probabilities sum to 1 (non-targets), source
// probabilities sum to 1, every arc leads to a node of the next level, every
// non-source node has a predecessor, and every node lies on some
// source-to-target path (no unreachable ghosts). It is used by tests and by
// Decode and returns the first violation found.
func (g *Graph) CheckInvariants(tol float64) error {
	if g.Duration() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if err := g.checkShape(); err != nil {
		return err
	}
	var srcSum float64
	for _, p := range g.src {
		srcSum += p
	}
	if math.Abs(srcSum-1) > tol {
		return fmt.Errorf("core: source probabilities sum to %g", srcSum)
	}
	last := g.Duration() - 1
	// reach[n] marks the nodes, numbered through levelOff, reachable from a
	// source. Reachability is tracked explicitly rather than via alpha > 0
	// so that probability underflow on long windows cannot mask a ghost (or
	// flag a legitimate node). hasPred is one row, reused for every level.
	reach := make([]bool, len(g.loc))
	pred := make([]bool, g.Widest())
	for i := range g.Level(0).Width() {
		reach[i] = true
	}
	for t := 0; t <= last; t++ {
		lvl := g.Level(t)
		if lvl.Width() == 0 {
			return fmt.Errorf("core: no nodes at timestamp %d", t)
		}
		var hasPred []bool
		if t < last {
			hasPred = pred[:g.Level(t+1).Width()]
			clear(hasPred)
		}
		off, next := g.levelOff[t], g.levelOff[t+1]
		for i := 0; i < lvl.Width(); i++ {
			arcs := lvl.Out(i)
			if t == last {
				if arcs.Len() > 0 {
					return fmt.Errorf("core: target node %d at timestamp %d has %d out-arcs", i, t, arcs.Len())
				}
				continue
			}
			if arcs.Len() == 0 {
				return fmt.Errorf("core: non-target node %d at timestamp %d has no successors", i, t)
			}
			var sum float64
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				if to < 0 || to >= len(hasPred) {
					return fmt.Errorf("core: arc %d of node %d at timestamp %d leads to node %d, which level %d does not have", k, i, t, to, t+1)
				}
				if p <= 0 || p > 1+tol {
					return fmt.Errorf("core: arc %d of node %d at timestamp %d has probability %g", k, i, t, p)
				}
				sum += p
				hasPred[to] = true
				if reach[int(off)+i] {
					reach[int(next)+to] = true
				}
			}
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("core: out-probabilities of node %d at timestamp %d sum to %g", i, t, sum)
			}
		}
		for i, ok := range hasPred {
			if !ok {
				return fmt.Errorf("core: non-source node %d at timestamp %d has no predecessors", i, t+1)
			}
		}
	}
	for t := 0; t <= last; t++ {
		off := int(g.levelOff[t])
		for i, ok := range reach[off : off+g.Level(t).Width()] {
			if !ok {
				return fmt.Errorf("core: node %d at timestamp %d is unreachable from every source", i, t)
			}
		}
	}
	// Marginal mass must be 1 at every timestamp.
	alpha, beta := g.Forward(), g.Backward()
	for t := 0; t <= last; t++ {
		lvl := g.Level(t)
		b := lvl.Column(beta)
		var mass float64
		for i, a := range lvl.Column(alpha) {
			mass += a * b[i]
		}
		if math.Abs(mass-1) > tol {
			return fmt.Errorf("core: probability mass at timestamp %d is %g", t, mass)
		}
	}
	return nil
}

// checkShape verifies that g's columns fit together: offsets start at 0,
// never decrease and end at their column's length, and every per-node
// column has one entry per node.
func (g *Graph) checkShape() error {
	nodes := len(g.loc)
	switch {
	case !offsets(g.levelOff, nodes):
		return fmt.Errorf("core: level offsets do not partition %d nodes", nodes)
	case len(g.arcOff) != nodes+1 || !offsets(g.arcOff, len(g.to)) || len(g.p) != len(g.to):
		return fmt.Errorf("core: arc offsets do not partition %d arcs over %d nodes", len(g.to), nodes)
	case len(g.src) != int(g.levelOff[1]):
		return fmt.Errorf("core: %d source probabilities for %d source nodes", len(g.src), g.levelOff[1])
	case len(g.stay) == 0 && len(g.tlOff) == 0 && len(g.tl) == 0:
		return nil
	case len(g.stay) != nodes || len(g.tlOff) != nodes+1 || !offsets(g.tlOff, len(g.tl)):
		return fmt.Errorf("core: stay and TL columns do not fit %d nodes", nodes)
	}
	return nil
}

// offsets reports whether off is an offset column over n elements: it
// starts at 0, never decreases and ends at n.
func offsets(off []int32, n int) bool {
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != n {
		return false
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return false
		}
	}
	return true
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
