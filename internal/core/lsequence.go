// Package core implements the paper's primary contribution: the conditioned
// trajectory graph (ct-graph) and the cleaning algorithm that builds it
// (Algorithm 1).
//
// The input is a probabilistic location sequence (l-sequence, §2): for each
// timestamp of the monitoring window, the candidate locations of the object
// together with their a-priori probabilities implied by p*(l|R). The output
// is a compact DAG whose source-to-target paths are exactly the trajectories
// valid under a set of integrity constraints, with probabilities revised by
// conditioning: the probability of a path (product of its source-node
// probability and its edge probabilities) equals the a-priori probability of
// the corresponding trajectory divided by the total a-priori probability of
// all valid trajectories (§3.1, §4, §5).
//
// The package also provides the naive baseline the introduction argues is
// infeasible — explicit enumeration of all trajectories followed by exact
// conditioning — which doubles as the correctness oracle for the ct-graph in
// the test suite, plus the downstream primitives the paper discusses:
// per-timestamp marginals, most-probable-trajectory extraction, and weighted
// sampling of valid trajectories (a §7 future-work item).
package core

import (
	"fmt"
	"math"
)

// Candidate is one possible location of the object at a timestamp, with its
// a-priori probability f(X_θ = l) = p*(l | θ[readers]).
type Candidate struct {
	Loc int     // location ID
	P   float64 // a-priori probability, > 0
}

// Step holds the candidate locations for one timestamp. Candidates carry
// only non-zero probabilities and sum to 1 (§2: Λ contains only pairs with
// non-zero probability).
type Step struct {
	Candidates []Candidate
}

// LSequence is the l-sequence Γ = (Λ, ρ) of §2: Steps[τ] lists the
// candidate (location, probability) pairs for timestamp τ.
type LSequence struct {
	Steps []Step
}

// FromDistributions builds an l-sequence from per-timestamp location
// distributions: dists[τ][l] is the probability that the object is at
// location l at time τ. Zero entries are dropped.
func FromDistributions(dists [][]float64) *LSequence {
	ls := &LSequence{Steps: make([]Step, len(dists))}
	for t, dist := range dists {
		for loc, p := range dist {
			if p > 0 {
				ls.Steps[t].Candidates = append(ls.Steps[t].Candidates, Candidate{Loc: loc, P: p})
			}
		}
	}
	return ls
}

// Duration returns the number of timestamps covered by the l-sequence.
func (ls *LSequence) Duration() int { return len(ls.Steps) }

// NumLocations returns one more than the largest location ID mentioned.
func (ls *LSequence) NumLocations() int {
	max := -1
	for _, s := range ls.Steps {
		for _, c := range s.Candidates {
			if c.Loc > max {
				max = c.Loc
			}
		}
	}
	return max + 1
}

// Validate checks structural sanity: at least one timestamp, a well-formed
// candidate set per timestamp (see validateCandidates) whose probabilities
// sum to 1 (within tol).
func (ls *LSequence) Validate() error {
	if ls == nil || len(ls.Steps) == 0 {
		return fmt.Errorf("core: empty l-sequence")
	}
	for t, s := range ls.Steps {
		if err := validateCandidates(s.Candidates, t); err != nil {
			return err
		}
		sum := 0.0
		for _, c := range s.Candidates {
			sum += c.P
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: timestamp %d probabilities sum to %g, want 1", t, sum)
		}
	}
	return nil
}

// validateCandidates rejects malformed candidate sets: empty, non-positive
// probabilities, negative locations, or duplicate locations (a duplicate
// would double-accumulate its forward mass and silently skew the frontier).
// Shared by LSequence.Validate and every streaming Observe.
func validateCandidates(candidates []Candidate, t int) error {
	if len(candidates) == 0 {
		return fmt.Errorf("core: empty candidate set at timestamp %d", t)
	}
	for i, c := range candidates {
		if c.P <= 0 || c.Loc < 0 {
			return fmt.Errorf("core: bad candidate (loc %d, p %g) at timestamp %d", c.Loc, c.P, t)
		}
		for _, prev := range candidates[:i] {
			if prev.Loc == c.Loc {
				return fmt.Errorf("core: duplicate candidate location %d at timestamp %d", c.Loc, t)
			}
		}
	}
	return nil
}

// NumTrajectories returns the number of trajectories over the l-sequence
// (the product of the per-step candidate counts, §2) as a float64, which may
// be +Inf for long sequences — that blow-up is the reason the ct-graph
// exists.
func (ls *LSequence) NumTrajectories() float64 {
	n := 1.0
	for _, s := range ls.Steps {
		n *= float64(len(s.Candidates))
	}
	return n
}

// PriorProbability returns the a-priori probability p*(t) of the trajectory
// given as one location per timestamp: the product of the per-step candidate
// probabilities (independence assumption, §2). It returns 0 when a step's
// location is not among that step's candidates.
func (ls *LSequence) PriorProbability(locs []int) float64 {
	if len(locs) != len(ls.Steps) {
		return 0
	}
	p := 1.0
	for t, loc := range locs {
		var stepP float64
		for _, c := range ls.Steps[t].Candidates {
			if c.Loc == loc {
				stepP = c.P
				break
			}
		}
		if stepP == 0 {
			return 0
		}
		p *= stepP
	}
	return p
}
