package query

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Engine answers stay and trajectory queries over one ct-graph. It computes
// the forward/backward passes on the first query that needs them and caches
// them; create a new Engine per graph. Engines are safe for concurrent use:
// the graph is read-only and the pass fill runs once.
type Engine struct {
	g      *core.Graph
	numLoc int

	passes      sync.Once
	alpha, beta [][]float64 // indexed [tau][node.Index()]; set by passes
}

// NewEngine returns a query engine over the graph. numLocations must exceed
// every location ID appearing in the graph.
func NewEngine(g *core.Graph, numLocations int) *Engine {
	return &Engine{g: g, numLoc: numLocations}
}

func (e *Engine) ensurePasses() {
	e.passes.Do(func() {
		e.alpha = e.g.Forward()
		e.beta = e.g.Backward()
	})
}

// Stay answers a stay query: the conditioned distribution over locations at
// time tau (§6.6). The returned slice is freshly allocated.
func (e *Engine) Stay(tau int) ([]float64, error) {
	if tau < 0 || tau >= e.g.Duration() {
		return nil, fmt.Errorf("query: timestamp %d outside window [0, %d)", tau, e.g.Duration())
	}
	e.ensurePasses()
	dist := make([]float64, e.numLoc)
	for _, n := range e.g.NodesAt(tau) {
		if n.Loc >= e.numLoc {
			return nil, fmt.Errorf("query: node location ID %d outside [0, %d)", n.Loc, e.numLoc)
		}
		dist[n.Loc] += e.alpha[tau][n.Index()] * e.beta[tau][n.Index()]
	}
	return dist, nil
}

// Trajectory answers a trajectory query: the probability that the object's
// trajectory matches the pattern, i.e. the total conditioned probability of
// the matching source-to-target paths (§6.6).
func (e *Engine) Trajectory(p Pattern) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	// Every path spans the whole window, so a pattern that needs more
	// timestamps than the window has matches none: the answer is exactly 0.
	// Checking first also keeps a huge run length (one automaton state per
	// unit) from ever reaching compile.
	if p.longerThan(e.g.Duration()) {
		return 0, nil
	}
	d := compile(p)

	// DP over (node, DFA state). DFA determinism guarantees each path
	// contributes to exactly one state, so probabilities add correctly.
	// Accumulation iterates nodes in graph order and states in sorted
	// order, keeping answers bit-for-bit reproducible across runs (map
	// iteration order would otherwise reassociate the float sums).
	cur := make(map[*core.Node]map[int]float64)
	addState := func(m map[*core.Node]map[int]float64, n *core.Node, q int, p float64) {
		states := m[n]
		if states == nil {
			states = make(map[int]float64)
			m[n] = states
		}
		states[q] += p
	}
	for _, src := range e.g.Sources() {
		if q := d.next(0, src.Loc); q >= 0 {
			addState(cur, src, q, src.SourceProb())
		}
	}
	sortedStates := func(states map[int]float64) []int {
		qs := make([]int, 0, len(states))
		for q := range states {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		return qs
	}
	for tau := 0; tau+1 < e.g.Duration(); tau++ {
		next := make(map[*core.Node]map[int]float64)
		alive := false
		for _, n := range e.g.NodesAt(tau) {
			states := cur[n]
			if states == nil {
				continue
			}
			for _, q := range sortedStates(states) {
				p := states[q]
				for _, edge := range n.Out() {
					if nq := d.next(q, edge.To.Loc); nq >= 0 {
						addState(next, edge.To, nq, p*edge.P)
						alive = true
					}
				}
			}
		}
		cur = next
		if !alive {
			return 0, nil
		}
	}
	total := 0.0
	for _, n := range e.g.Targets() {
		states := cur[n]
		if states == nil {
			continue
		}
		for _, q := range sortedStates(states) {
			if d.accepting[q] {
				total += states[q]
			}
		}
	}
	return total, nil
}

// Matches evaluates the pattern on a concrete trajectory (e.g. the ground
// truth), returning the deterministic yes/no answer.
func Matches(p Pattern, locs []int) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	return compile(p).matches(locs), nil
}

// StayAccuracy is the paper's accuracy measure for stay queries: the
// probability the answer assigns to the location the object actually
// occupied at the queried time (§6.6).
func StayAccuracy(dist []float64, trueLoc int) float64 {
	if trueLoc < 0 || trueLoc >= len(dist) {
		return 0
	}
	return dist[trueLoc]
}

// TrajectoryAccuracy is the paper's accuracy measure for trajectory queries:
// the probability mass the probabilistic answer puts on the ground-truth
// answer — p when the true trajectory matches, 1−p otherwise.
func TrajectoryAccuracy(pYes float64, truth bool) float64 {
	if truth {
		return pYes
	}
	return 1 - pYes
}
