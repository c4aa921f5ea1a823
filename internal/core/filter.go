package core

import (
	"fmt"

	"repro/internal/constraints"
)

// Filter is the online (streaming) counterpart of Build: it consumes one
// timestamp of candidate locations at a time and maintains the *filtered*
// distribution — the conditioned distribution of the object's current
// location given the readings and constraints observed so far. This extends
// the paper toward the streaming setting its §7 alludes to: the frontier it
// maintains is exactly the set of location nodes Algorithm 1's forward phase
// would have alive at the current timestamp, with their (normalized) forward
// probability mass.
//
// At the final timestamp the filtered distribution coincides with the
// smoothed marginal of the full ct-graph built under LenientEnd semantics;
// at earlier timestamps it conditions only on the past, which is the best an
// online cleaner can do.
//
// An optional beam width bounds the frontier for long, highly ambiguous
// streams by keeping only the most probable nodes — an approximation that
// trades exactness for a hard memory bound.
type Filter struct {
	frontier
	beam  int
	spare []*Node // the previous level's slice, reused as the next expand target
}

// FilterOptions configures a Filter.
type FilterOptions struct {
	// Beam, when positive, caps the number of frontier nodes kept after
	// each observation (highest forward probability first). Zero keeps
	// every node (exact filtering).
	Beam int
}

// NewFilter returns a streaming cleaner over the given constraints.
func NewFilter(ic *constraints.Set, opts *FilterOptions) *Filter {
	f := &Filter{frontier: newFrontier(ic)}
	if opts != nil && opts.Beam > 0 {
		f.beam = opts.Beam
	}
	return f
}

// Beam returns the configured beam width (0 = exact filtering).
func (f *Filter) Beam() int { return f.beam }

// Observe advances the filter by one timestamp. candidates is the step's
// candidate set (non-zero probabilities summing to 1, as produced by
// prior.Model). It returns ErrNoValidTrajectory when no continuation is
// consistent with the constraints, after which the filter is unusable.
func (f *Filter) Observe(candidates []Candidate) error {
	prev, err := f.advance(candidates, f.spare[:0], f.beam)
	if err != nil {
		return err
	}
	f.spare = prev
	return nil
}

// Current returns the filtered distribution over locations at the latest
// observed timestamp. numLocations sizes the result; an error is returned
// when a frontier node mentions a location ID outside [0, numLocations).
func (f *Filter) Current(numLocations int) ([]float64, error) {
	if f.time < 0 {
		return nil, fmt.Errorf("core: filter has observed nothing")
	}
	dist := make([]float64, numLocations)
	for i, n := range f.level {
		if n.Loc >= numLocations {
			return nil, fmt.Errorf("core: frontier location ID %d outside [0, %d)", n.Loc, numLocations)
		}
		dist[n.Loc] += f.alphas[i]
	}
	return dist, nil
}

// MostLikely returns the most probable current location and its filtered
// probability.
func (f *Filter) MostLikely() (loc int, p float64, err error) {
	top, err := f.TopLocations(1)
	if err != nil {
		return 0, 0, err
	}
	if len(top) == 0 { // dead-ended filter: empty frontier
		return -1, -1, nil
	}
	return top[0].Loc, top[0].P, nil
}
