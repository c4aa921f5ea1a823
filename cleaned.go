package rfidclean

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/query"
)

var errDecodeNoPlan = errors.New("rfidclean: DecodeCleaned needs a plan")

// Cleaned is the result of cleaning one reading sequence: the conditioned
// trajectory graph plus a query engine over it. All probabilities it reports
// are conditioned on the integrity constraints holding.
type Cleaned struct {
	graph   *core.Graph
	plan    *floorplan.Plan
	engine  *query.Engine
	explain *Explain
}

func newCleaned(g *core.Graph, plan *floorplan.Plan) *Cleaned {
	return &Cleaned{
		graph:  g,
		plan:   plan,
		engine: query.NewEngine(g, plan.NumLocations()),
	}
}

// newCleanedExplained wraps newCleaned, attaching an explain report when the
// build options requested one. The report is deep-copied out of the options
// so the Cleaned's copy survives the options being reused for another build.
func newCleanedExplained(g *core.Graph, plan *floorplan.Plan, opts *core.Options, derive time.Duration) *Cleaned {
	c := newCleaned(g, plan)
	if opts != nil && opts.Explain != nil {
		b := *opts.Explain
		b.Steps = append([]ExplainStep(nil), b.Steps...)
		c.explain = &Explain{DeriveNanos: derive.Nanoseconds(), Build: b}
	}
	return c
}

// Quotient returns a Cleaned over the quotient of c's graph
// (core.Graph.Quotient): one node per distinct future, with every valid
// trajectory and its probability kept bit for bit, and no stay counters or
// TL entries. Answers that sum over trajectories agree with c's within
// rounding. The explain report, which describes the graph c's build made,
// is kept.
func (c *Cleaned) Quotient() *Cleaned {
	q := newCleaned(c.graph.Quotient(), c.plan)
	q.explain = c.explain
	return q
}

// Explain is the cleaning explain report of one Clean call: where the time
// went and where candidate interpretations were pruned, constraint family by
// constraint family. Collect one by cleaning with BuildOptions.Explain set.
type Explain struct {
	// DeriveNanos is the wall time spent deriving the l-sequence from the
	// readings through the prior.
	DeriveNanos int64 `json:"deriveNanos"`
	// Build is Algorithm 1's own report.
	Build BuildExplain `json:"build"`
}

// Explain returns the cleaning explain report, or nil when the clean did not
// request one (BuildOptions.Explain was unset).
func (c *Cleaned) Explain() *Explain { return c.explain }

// Graph exposes the underlying conditioned trajectory graph.
func (c *Cleaned) Graph() *CTGraph { return c.graph }

// Duration returns the number of timestamps covered.
func (c *Cleaned) Duration() int { return c.graph.Duration() }

// StayDistribution answers a stay query: the conditioned distribution over
// location IDs at time tau.
func (c *Cleaned) StayDistribution(tau int) ([]float64, error) {
	return c.engine.Stay(tau)
}

// MostLikelyAt returns the most probable location at time tau and its
// probability.
func (c *Cleaned) MostLikelyAt(tau int) (Location, float64, error) {
	dist, err := c.engine.Stay(tau)
	if err != nil {
		return Location{}, 0, err
	}
	best, bestP := 0, -1.0
	for loc, p := range dist {
		if p > bestP {
			best, bestP = loc, p
		}
	}
	return c.plan.Location(best), bestP, nil
}

// MatchProbability answers a trajectory query: the probability that the
// object's trajectory matches the pattern.
func (c *Cleaned) MatchProbability(p Pattern) (float64, error) {
	return c.engine.Trajectory(p)
}

// Match parses a pattern against the plan's location names and evaluates it.
func (c *Cleaned) Match(pattern string) (float64, error) {
	p, err := query.ParsePattern(pattern, func(name string) (int, error) {
		l, ok := c.plan.LocationByName(name)
		if !ok {
			return 0, errUnknownLocation(name)
		}
		return l.ID, nil
	})
	if err != nil {
		return 0, err
	}
	return c.engine.Trajectory(p)
}

// EverIn returns the probability that the object was at the named location
// at some timestamp in [from, to] (inclusive).
func (c *Cleaned) EverIn(location string, from, to int) (float64, error) {
	l, ok := c.plan.LocationByName(location)
	if !ok {
		return 0, errUnknownLocation(location)
	}
	return c.engine.EverIn(l.ID, from, to)
}

// ExpectedVisitTime returns the expected number of timestamps the object
// spent at the named location within [from, to].
func (c *Cleaned) ExpectedVisitTime(location string, from, to int) (float64, error) {
	l, ok := c.plan.LocationByName(location)
	if !ok {
		return 0, errUnknownLocation(location)
	}
	return c.engine.ExpectedVisitTime(l.ID, from, to)
}

// Marginals returns the conditioned per-timestamp distribution over
// locations: out[τ][locID], the stay answer at every τ. It returns an error
// when the graph mentions a location ID the plan does not know about.
func (c *Cleaned) Marginals() ([][]float64, error) {
	out := make([][]float64, c.Duration())
	for t := range out {
		var err error
		if out[t], err = c.engine.Stay(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MostProbable returns the single most probable valid trajectory (one
// location ID per timestamp) and its conditioned probability.
func (c *Cleaned) MostProbable() ([]int, float64) {
	return c.graph.MostProbable()
}

// Sample draws a valid trajectory from the conditioned distribution.
func (c *Cleaned) Sample(rng *RNG) []int {
	return c.graph.Sample(rng)
}

// TopK returns the up-to-k most probable valid trajectories with their
// conditioned probabilities, descending.
func (c *Cleaned) TopK(k int) ([][]int, []float64) {
	return c.graph.TopK(k)
}

// ExpectedOccupancy returns, per location ID, the expected number of
// timestamps the object spent there under the conditioned distribution
// (the values sum to the window duration).
func (c *Cleaned) ExpectedOccupancy() ([]float64, error) {
	m, err := c.Marginals()
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.plan.NumLocations())
	for _, row := range m {
		for loc, p := range row {
			out[loc] += p
		}
	}
	return out, nil
}

// Encode writes the conditioned trajectory graph as JSON; reload it with
// DecodeCTGraph, or with DecodeCleaned to get a queryable Cleaned back. The
// output is deterministic for a given graph (nodes level by level in index
// order, fixed field order, shortest round-trip float encoding), so
// re-encoding a decoded graph reproduces the same bytes — the property the
// server's persistence layer relies on for stable snapshots.
func (c *Cleaned) Encode(w io.Writer) error { return c.graph.Encode(w) }

// DecodeCleaned reads a ct-graph written by Encode and rehydrates a
// queryable Cleaned against the plan it was cleaned under. The graph's
// location IDs are validated against the plan, so a snapshot restored
// against the wrong deployment fails loudly instead of answering queries
// with unknown locations. Explain reports are not part of the serialized
// form; Explain returns nil on a decoded Cleaned.
func DecodeCleaned(r io.Reader, plan *Plan) (*Cleaned, error) {
	if plan == nil {
		return nil, errDecodeNoPlan
	}
	g, err := core.Decode(r)
	if err != nil {
		return nil, err
	}
	for t := 0; t < g.Duration(); t++ {
		for lvl, i := g.Level(t), 0; i < lvl.Width(); i++ {
			if loc := lvl.Loc(i); loc >= plan.NumLocations() {
				return nil, fmt.Errorf("rfidclean: decoded graph does not fit the plan: location ID %d at timestamp %d outside [0, %d)", loc, t, plan.NumLocations())
			}
		}
	}
	return newCleaned(g, plan), nil
}

// Event is a maximal run of timestamps sharing the same most probable
// location — the cleaned data segmented into human-readable stays.
type Event = query.Event

// Events segments the window into location runs with confidences.
func (c *Cleaned) Events() []Event { return c.engine.Events() }

// TransitionMatrix returns the expected number of transitions between every
// ordered pair of location IDs under the conditioned distribution (diagonal
// entries count stays).
func (c *Cleaned) TransitionMatrix() [][]float64 { return c.engine.TransitionMatrix() }

// Stats reports the size of the conditioned trajectory graph. It reads only
// the frozen graph's column lengths, so serving layers can account store
// bytes per request at no cost.
func (c *Cleaned) Stats() GraphStats { return c.graph.Stats() }

// GraphStats summarizes a ct-graph's size.
type GraphStats = core.Stats

// LocationName renders a location ID using the plan.
func (c *Cleaned) LocationName(id int) string {
	if id < 0 || id >= c.plan.NumLocations() {
		return "?"
	}
	return c.plan.Location(id).Name
}

type errUnknownLocation string

func (e errUnknownLocation) Error() string {
	return "rfidclean: unknown location \"" + string(e) + "\""
}
