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
	alpha, beta [][]float64 // indexed [tau][node index]; set by passes
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

	// DP over (node, DFA state), one state map per node index of the
	// level. DFA determinism guarantees each path contributes to exactly
	// one state, so probabilities add correctly. Accumulation iterates
	// nodes in index order and states in sorted order, keeping answers
	// bit-for-bit reproducible across runs (map iteration order would
	// otherwise reassociate the float sums).
	src := e.g.Level(0)
	cur := make([]map[int]float64, src.Width())
	for i := range cur {
		if q := d.next(0, src.Loc(i)); q >= 0 {
			cur[i] = map[int]float64{q: src.SourceProb(i)}
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
		lvl, nxt := e.g.Level(tau), e.g.Level(tau+1)
		next := make([]map[int]float64, nxt.Width())
		alive := false
		for i, states := range cur {
			if states == nil {
				continue
			}
			arcs := lvl.Out(i)
			for _, q := range sortedStates(states) {
				p := states[q]
				for k := 0; k < arcs.Len(); k++ {
					to, pe := arcs.At(k)
					if nq := d.next(q, nxt.Loc(to)); nq >= 0 {
						if next[to] == nil {
							next[to] = make(map[int]float64)
						}
						next[to][nq] += p * pe
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
	for _, states := range cur {
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
