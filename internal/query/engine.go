package query

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Engine answers stay and trajectory queries over one ct-graph. It computes
// the forward/backward passes on the first query that needs them and caches
// them, as one node column each (16 bytes per node together); create a new
// Engine per graph. Engines are safe for concurrent use: the graph is
// read-only and the pass fill runs once.
type Engine struct {
	g      *core.Graph
	numLoc int

	passes      sync.Once
	alpha, beta []float64 // node columns, sliced per level by Level.Column; set by passes
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
	return e.g.LocationMass(tau, e.alpha, e.beta, e.numLoc)
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

	// DP over (node, DFA state), one row of nodes × states per level: the
	// mass of the paths into node i that leave the DFA in state q is
	// row[i*states+q], 0 when there are none. DFA determinism guarantees
	// each path contributes to exactly one state, so probabilities add
	// correctly. Accumulation visits nodes in index order, states in
	// ascending order and arcs in arc order, keeping answers bit-for-bit
	// reproducible. Two rows, sized to the widest level, serve every level.
	states, widest := d.states(), e.g.Widest()
	cur, next := make([]float64, widest*states), make([]float64, widest*states)
	sym := make([]int, widest) // alphabet index of each node of the next level
	src := e.g.Level(0)
	for i := range src.Width() {
		if q := d.next(0, src.Loc(i)); q >= 0 {
			cur[i*states+q] = src.SourceProb(i)
		}
	}
	for tau := 0; tau+1 < e.g.Duration(); tau++ {
		lvl, nxt := e.g.Level(tau), e.g.Level(tau+1)
		for j := range nxt.Width() {
			sym[j] = d.symbolOf(nxt.Loc(j))
		}
		row := next[:nxt.Width()*states]
		clear(row)
		alive := false
		for i := range lvl.Width() {
			arcs := lvl.Out(i)
			for q, p := range cur[i*states : (i+1)*states] {
				if p == 0 {
					continue
				}
				trans := d.row(q)
				for k := 0; k < arcs.Len(); k++ {
					to, pe := arcs.At(k)
					if nq := trans[sym[to]]; nq >= 0 {
						row[to*states+int(nq)] += p * pe
						alive = true
					}
				}
			}
		}
		if !alive {
			return 0, nil
		}
		cur, next = next, cur
	}
	total := 0.0
	for i := range e.g.Level(e.g.Duration() - 1).Width() {
		for q, p := range cur[i*states : (i+1)*states] {
			if d.accepting[q] {
				total += p
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
