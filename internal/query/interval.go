package query

import "fmt"

// EverIn answers an interval-occupancy query: the probability that the
// object was at location loc at some timestamp in [from, to] (inclusive).
// It complements stay queries (a single timestamp) and pattern queries
// (which cannot anchor conditions to absolute times).
//
// The complement is computed with one forward pass that drops every
// loc-node inside the window: P(ever in loc during [from,to]) =
// 1 − P(no τ in [from,to] has X_τ = loc).
func (e *Engine) EverIn(loc, from, to int) (float64, error) {
	if from > to {
		return 0, fmt.Errorf("query: empty interval [%d, %d]", from, to)
	}
	if from < 0 || to >= e.g.Duration() {
		return 0, fmt.Errorf("query: interval [%d, %d] outside window [0, %d)", from, to, e.g.Duration())
	}
	// Forward mass restricted to paths avoiding loc within the window, one
	// level at a time, indexed by the nodes' dense per-level indices.
	src := e.g.Level(0)
	alpha := make([]float64, src.Width())
	for i := range alpha {
		if from > 0 || src.Loc(i) != loc {
			alpha[i] = src.SourceProb(i)
		}
	}
	for t := 1; t < e.g.Duration(); t++ {
		prev, lvl := e.g.Level(t-1), e.g.Level(t)
		next := make([]float64, lvl.Width())
		inWindow := t >= from && t <= to
		for i, a := range alpha {
			if a == 0 {
				continue
			}
			arcs := prev.Out(i)
			for k := 0; k < arcs.Len(); k++ {
				if j, p := arcs.At(k); !inWindow || lvl.Loc(j) != loc {
					next[j] += a * p
				}
			}
		}
		alpha = next
	}
	var never float64
	for _, a := range alpha {
		never += a
	}
	if never > 1 {
		never = 1
	}
	return 1 - never, nil
}

// ExpectedVisitTime returns the expected number of timestamps spent at loc
// within [from, to] under the conditioned distribution (the sum of the stay
// marginals over the interval).
func (e *Engine) ExpectedVisitTime(loc, from, to int) (float64, error) {
	if from > to {
		return 0, fmt.Errorf("query: empty interval [%d, %d]", from, to)
	}
	if from < 0 || to >= e.g.Duration() {
		return 0, fmt.Errorf("query: interval [%d, %d] outside window [0, %d)", from, to, e.g.Duration())
	}
	e.ensurePasses()
	total := 0.0
	for t := from; t <= to; t++ {
		lvl := e.g.Level(t)
		for i := 0; i < lvl.Width(); i++ {
			if lvl.Loc(i) == loc {
				total += e.alpha[t][i] * e.beta[t][i]
			}
		}
	}
	return total, nil
}
