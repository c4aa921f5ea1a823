package query

import "fmt"

// TransitionMatrix returns the expected number of transitions between each
// ordered pair of locations under the conditioned distribution:
// out[a][b] = E[ #timestamps τ with X_τ = a and X_{τ+1} = b ]. Diagonal
// entries count stays. Row/column sums relate to expected occupancy, and the
// total over all entries is duration − 1.
//
// The expectation is computed edge-wise from the forward/backward masses:
// an edge (n, m) is traversed with probability α(n)·p_E(n,m)·β(m).
func (e *Engine) TransitionMatrix() [][]float64 {
	e.ensurePasses()
	out := make([][]float64, e.numLoc)
	for i := range out {
		out[i] = make([]float64, e.numLoc)
	}
	for t := 0; t+1 < e.g.Duration(); t++ {
		lvl, nxt := e.g.Level(t), e.g.Level(t+1)
		for i, a := range e.alpha[t] {
			if a == 0 {
				continue
			}
			row, arcs := out[lvl.Loc(i)], lvl.Out(i)
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				row[nxt.Loc(to)] += a * p * e.beta[t+1][to]
			}
		}
	}
	return out
}

// Event is a maximal run of timestamps whose most probable location is the
// same: the cleaned data segmented into human-readable stays.
type Event struct {
	// Loc is the location ID of the run.
	Loc int
	// From and To delimit the run (inclusive).
	From, To int
	// Confidence is the mean marginal probability of Loc over the run.
	Confidence float64
}

// Duration returns the number of timestamps the event spans.
func (ev Event) Duration() int { return ev.To - ev.From + 1 }

// String implements fmt.Stringer.
func (ev Event) String() string {
	return fmt.Sprintf("L%d@[%d,%d] (%.2f)", ev.Loc, ev.From, ev.To, ev.Confidence)
}

// Events segments the window into runs of the per-timestamp most probable
// location (the lowest location ID on a tie). Every event carries its
// confidence; the caller decides what to trust. Events returns nil when the
// graph mentions a location outside the engine's range.
func (e *Engine) Events() []Event {
	e.ensurePasses()
	var events []Event
	var confSum float64
	for t := 0; t < e.g.Duration(); t++ {
		dist, err := e.g.LocationMass(t, e.alpha, e.beta, e.numLoc)
		if err != nil {
			return nil
		}
		bestLoc, bestP := -1, -1.0
		for loc, p := range dist {
			if p > bestP {
				bestLoc, bestP = loc, p
			}
		}
		if n := len(events); n > 0 && events[n-1].Loc == bestLoc {
			ev := &events[n-1]
			ev.To = t
			confSum += bestP
			ev.Confidence = confSum / float64(ev.Duration())
			continue
		}
		events = append(events, Event{Loc: bestLoc, From: t, To: t, Confidence: bestP})
		confSum = bestP
	}
	return events
}
