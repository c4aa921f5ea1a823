package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/constraints"
	"repro/internal/obs"
)

// BuildState is Algorithm 1 run one timestamp at a time: it keeps the
// forward pass of the ct-graph alive across readings, appending one level
// per Observe, and Smooth conditions every observed level. Build is a
// BuildState stepped once per timestamp of its l-sequence and smoothed, so
// a smooth is the build over the same readings by construction.
//
// The raw graph (nodes, a-priori arcs, source probabilities) is the
// kernel's working graph, append-only and only read once a level has its
// arcs. Smooth runs the backward phase (condition) over it, writing into
// the columns of the state's pass, and then the quotient or a frozen copy.
// Every float operation happens in the same order as in a full offline
// Build over the same readings, so the smoothed graph is bit-identical, not
// merely close.
//
// Each Smooth returns a new frozen Graph that shares nothing with the state:
// callers may retain earlier results (e.g. a trajectory store) while the
// session keeps observing and smoothing.
//
// BuildState is also the online cleaner. It keeps the normalized forward
// mass of the newest level, and Distribution/TopLocations answer the
// *filtered* distribution of the object's current location: conditioned on
// the readings so far, the best a live tracker can do. This extends the
// paper toward the streaming setting its §7 alludes to. At the newest
// timestamp the filtered distribution equals, within rounding, the smoothed
// marginal of a LenientEnd Build over the same readings.
//
// A BuildState holds a pooled kernel — its working graph, interner, forward
// mass, explain steps and pass — from its constructor until Release gives
// it back; a state never released leaves it to the garbage collector.
//
// BuildState is not safe for concurrent use.
type BuildState struct {
	// kernel is the forward pass; its working graph, interner, prune
	// counts, forward mass, explain steps, scratch and pass persist across
	// readings. The kernel's alphas hold the normalized forward mass of the
	// newest level. nil after Release.
	*kernel

	// dead is set by a dead end, which empties the alphas; every later
	// Observe fails.
	dead bool

	// forwardNanos is the wall time of the forward phase so far, which
	// Smooth reports as the explain report's ForwardNanos.
	forwardNanos int64
}

// ErrReleased is returned by a BuildState's Observe, Smooth, Distribution
// and TopLocations after Release.
var ErrReleased = errors.New("core: build state released")

// NewBuildState returns a streaming build over the given constraints,
// holding a kernel from the pool until Release. Its graph only ever leaves
// as a quotient: Smooth returns the quotient whatever Options.Quotient says,
// encoding byte for byte like Build(…).Quotient() over the same readings.
// Its forward phase therefore drops the TL entries that a node's own
// location already dominates (constraints.Compiled.DeadAfter), as Build with
// Quotient does, which merges nodes that differ only in entries that can
// never prune again; a session keeps far fewer raw nodes that way. Its raw
// graph is the one Build with Quotient builds over the same readings, so
// their explain reports agree.
func NewBuildState(ic *constraints.Set) *BuildState { return newBuildState(ic, true) }

// newBuildState returns a BuildState holding a kernel from the pool. With
// dominate its forward phase applies the dominance rule and Smooth returns
// the quotient; without it the state grows Algorithm 1's own graph, and
// Smooth returns it frozen.
func newBuildState(ic *constraints.Set, dominate bool) *BuildState {
	k := getKernel(ic)
	k.b.dominate = dominate
	return &BuildState{kernel: k}
}

// Release gives the state's kernel back to the pool for the next build or
// session. Graphs Smooth returned stay valid; the state itself is empty
// afterwards: Observe, Smooth, Distribution and TopLocations return
// ErrReleased, and Duration, Time, FrontierSize and InternerRebuilds report
// 0, -1, 0 and 0. Releasing twice is a no-op.
func (st *BuildState) Release() {
	if st.kernel == nil {
		return
	}
	k := st.kernel
	*st = BuildState{}
	k.put()
}

// Duration returns the number of observed timestamps.
func (st *BuildState) Duration() int {
	if st.kernel == nil {
		return 0
	}
	return st.b.g.Duration()
}

// Observe appends one timestamp to the raw graph. candidates is the step's
// candidate set (non-zero probabilities summing to 1, as produced by
// prior.Model). It returns ErrNoValidTrajectory when no continuation is
// consistent with the constraints; the already observed prefix stays
// smoothable, but no further readings are accepted.
func (st *BuildState) Observe(candidates []Candidate) error {
	if st.kernel == nil {
		return ErrReleased
	}
	start := time.Now()
	defer func() { st.forwardNanos += time.Since(start).Nanoseconds() }()
	t := st.Duration()
	if st.dead {
		return fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
	}
	if err := validateCandidates(candidates, t); err != nil {
		return err
	}
	return st.observe(candidates)
}

// observe is one step of Algorithm 1's forward phase (lines 1-14) over
// validated candidates: the kernel's sources or expand, then the newest
// level's forward mass normalized and its explain step recorded.
func (st *BuildState) observe(candidates []Candidate) error {
	t := st.b.g.Duration()
	if t == 0 {
		st.sources(candidates)
	} else if st.expand(t, candidates) == 0 {
		st.dead = true
		st.alphas = st.alphas[:0]
		return fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
	}
	st.alphas, st.mass = st.mass, st.alphas
	total := 0.0
	for _, a := range st.alphas {
		total += a
	}
	if total > 0 {
		for i := range st.alphas {
			st.alphas[i] /= total
		}
	}
	st.steps = append(st.steps, st.step)
	return nil
}

// Time returns the timestamp of the last observation (-1 before the first).
func (st *BuildState) Time() int { return st.Duration() - 1 }

// FrontierSize returns the number of alive location nodes at the newest
// timestamp (0 after a dead end).
func (st *BuildState) FrontierSize() int {
	if st.kernel == nil {
		return 0
	}
	return len(st.alphas)
}

// InternerRebuilds returns how many times the TL interner has been discarded
// and rebuilt to bound memory on a long stream.
func (st *BuildState) InternerRebuilds() int {
	if st.kernel == nil {
		return 0
	}
	return st.rebuilds
}

// LocProb is one (location ID, probability) entry of a filtered
// distribution.
type LocProb struct {
	Loc int
	P   float64
}

// Distribution returns the filtered distribution at the newest timestamp
// aggregated by location, sorted by descending probability (ties broken by
// ascending location ID), omitting zero-probability locations — the shape a
// live-tracking serving layer returns to clients.
func (st *BuildState) Distribution() ([]LocProb, error) {
	if st.kernel == nil {
		return nil, ErrReleased
	}
	if st.Duration() == 0 {
		return nil, fmt.Errorf("core: nothing observed yet")
	}
	g := &st.b.g
	byLoc := make(map[int]float64, len(st.alphas))
	for i, a := range st.alphas {
		byLoc[int(g.loc[g.levelOff[st.Time()]+int32(i)])] += a
	}
	out := make([]LocProb, 0, len(byLoc))
	for l, p := range byLoc {
		out = append(out, LocProb{Loc: l, P: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Loc < out[j].Loc
	})
	return out, nil
}

// TopLocations returns the up-to-k most probable current locations with
// their filtered probabilities, descending. k < 1 is an error.
func (st *BuildState) TopLocations(k int) ([]LocProb, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k >= 1, got %d", k)
	}
	dist, err := st.Distribution()
	if err != nil {
		return nil, err
	}
	return dist[:min(k, len(dist))], nil
}

// Smooth conditions the observed readings under the integrity constraints
// and returns the ct-graph, exactly as Build over the same l-sequence with
// Options.Quotient: the quotient, byte for byte Build(…).Quotient(), whatever
// opts.Quotient says. The returned graph is independent of the state: later
// Observe/Smooth calls never mutate it.
func (st *BuildState) Smooth(opts *Options) (*Graph, error) {
	if st.kernel == nil {
		return nil, ErrReleased
	}
	if st.Duration() == 0 {
		return nil, fmt.Errorf("core: build state has observed nothing")
	}
	return st.smooth(context.Background(), opts)
}

// smooth is Smooth and Build's tail: it fills the forward half of the
// explain report, runs the backward phase (condition) and returns the
// quotient, when the state drops dominated TL entries, or else a frozen
// copy of the conditioned graph.
func (st *BuildState) smooth(ctx context.Context, opts *Options) (*Graph, error) {
	ex := opts.explain()
	if ex != nil {
		ex.reset(st.Duration())
		ex.ForwardNanos = st.forwardNanos
		copy(ex.Steps, st.steps)
		ex.PrunedDU = st.prunes[pruneDU]
		ex.PrunedLT = st.prunes[pruneLT]
		ex.PrunedTT = st.prunes[pruneTT]
	}
	if err := st.condition(ctx, &st.b.g, opts.endLatency() == constraints.StrictEnd, ex); err != nil {
		return nil, err
	}
	if !st.b.dominate {
		return st.b.freeze(&st.pass), nil
	}
	_, sp := obs.Start(ctx, "core.quotient")
	defer sp.End()
	// The conditioned graph, as a view of the working graph's columns.
	v := st.b.g
	v.p, v.src = st.pe, st.src
	return quotientOf(&v, st.idx), nil
}
