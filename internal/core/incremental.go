package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/constraints"
)

// BuildState is the incremental counterpart of Build for streaming sessions:
// it keeps the forward pass of the ct-graph alive across readings, appending
// one level per Observe, and Smooth re-runs only the backward/revise suffix
// that the new levels can invalidate.
//
// The raw graph (nodes, a-priori edges, source probabilities) is append-only
// and only read once linked. Each Smooth runs the same per-level helpers as
// Build (condemnTargets, conditionLevel, conditionSources, number) on the
// raw levels it needs to recompute, writing into the columns of the state's
// pass, so every float operation happens in the same order as a full offline
// Build over the same readings — the smoothed marginals are bit-identical,
// not merely close.
//
// The suffix is bounded by convergence, not by a heuristic: the backward
// recurrence is swept from the newest level downward, and as soon as some
// level's rescaled survival vector is bitwise equal to the value the previous
// Smooth computed for it, every level below would condition identically, so
// the previous snapshot's prefix is reused instead of recomputed: its
// frozen columns are copied in front of the freshly frozen suffix.
// Survivals rescale to exactly 1 at unambiguous timestamps, so on real
// streams convergence is reached within a handful of levels of the newest
// reading.
//
// Each Smooth returns a new frozen Graph, which the state also keeps as the
// snapshot the next Smooth reuses: callers may retain earlier results (e.g.
// a trajectory store) while the session keeps smoothing.
//
// BuildState is also the online cleaner. It keeps the normalized forward
// mass of the newest level, and Distribution/TopLocations answer the
// *filtered* distribution of the object's current location: conditioned on
// the readings so far, the best a live tracker can do. This extends the
// paper toward the streaming setting its §7 alludes to. At the newest
// timestamp the filtered distribution equals the smoothed marginal of a
// LenientEnd Build over the same readings.
//
// BuildState is not safe for concurrent use.
type BuildState struct {
	// kernel is the forward pass; its interner, prune counts and scratch
	// persist across readings.
	kernel

	// levels[t] holds the raw (unconditioned) nodes of timestamp t in
	// construction order (never compacted).
	levels [][]*node
	// level is the newest of levels with alphas, its normalized forward
	// mass. A dead end empties both and sets dead; every later Observe
	// fails.
	level  []*node
	alphas []float64
	dead   bool

	// Cumulative forward-phase explain data, mirroring what a full Build
	// over the same readings would report (prune counts live in the kernel).
	steps        []ExplainStep
	forwardNanos int64

	// Bookkeeping from the last successful Smooth, used for convergence
	// detection and prefix reuse. prevLen is the window length it covered
	// (0 = none yet, or the last Smooth failed part way). The pass holds,
	// for each level, the columns of the last Smooth that recomputed it:
	// its post-rescale survivals and its numbering in the snapshot;
	// bRemoved[t]/ghosts[t] hold that Smooth's backward-removal and orphan
	// counts. spare takes a level's new survivals until they are compared
	// with the old. snap is the frozen graph the last Smooth returned.
	prevLen    int
	prevStrict bool
	pass
	bRemoved   []int
	ghosts     []int
	spare      []float64
	normalizer float64
	snap       *Graph
}

// NewBuildState returns an incremental build over the given constraints.
func NewBuildState(ic *constraints.Set) *BuildState {
	return &BuildState{kernel: newKernel(ic)}
}

// Duration returns the number of observed timestamps.
func (st *BuildState) Duration() int { return len(st.levels) }

// Observe appends one timestamp to the raw graph: the forward kernel's
// sources, or expand and link, exactly as Build runs them. candidates is the
// step's candidate set (non-zero probabilities summing to 1, as produced by
// prior.Model). It returns ErrNoValidTrajectory when no continuation is
// consistent with the constraints; the already observed prefix stays
// smoothable, but no further readings are accepted.
func (st *BuildState) Observe(candidates []Candidate) error {
	start := time.Now()
	defer func() { st.forwardNanos += time.Since(start).Nanoseconds() }()
	t := len(st.levels)
	if st.dead {
		return fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
	}
	if err := validateCandidates(candidates, t); err != nil {
		return err
	}
	next := make([]*node, 0, len(st.level))
	if t == 0 {
		next = st.sources(candidates, next)
		st.mass = st.mass[:0]
		for _, c := range candidates {
			st.mass = append(st.mass, c.P)
		}
	} else {
		if next = st.expand(t, st.level, candidates, next, st.alphas); len(next) == 0 {
			st.dead = true
			st.level, st.alphas = nil, nil
			return fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
		}
		st.link(st.level, candidates)
	}
	st.level = next
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
	st.levels = append(st.levels, next)
	st.steps = append(st.steps, st.step)
	return nil
}

// Time returns the timestamp of the last observation (-1 before the first).
func (st *BuildState) Time() int { return len(st.levels) - 1 }

// FrontierSize returns the number of alive location nodes at the newest
// timestamp (0 after a dead end).
func (st *BuildState) FrontierSize() int { return len(st.level) }

// InternerRebuilds returns how many times the TL interner has been discarded
// and rebuilt to bound memory on a long stream.
func (st *BuildState) InternerRebuilds() int { return st.rebuilds }

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
	if len(st.levels) == 0 {
		return nil, fmt.Errorf("core: nothing observed yet")
	}
	byLoc := make(map[int]float64, len(st.level))
	for i, n := range st.level {
		byLoc[int(n.Loc)] += st.alphas[i]
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
// and returns the ct-graph, exactly as Build over the same l-sequence would
// — but recomputing only the suffix the newest readings can invalidate. The
// returned graph is independent of the state: later Observe/Smooth calls
// never mutate it.
//
// Changing Options.EndLatency between calls is supported but invalidates the
// convergence bookkeeping, forcing that call to recompute every level.
func (st *BuildState) Smooth(opts *Options) (*Graph, error) {
	duration := len(st.levels)
	if duration == 0 {
		return nil, fmt.Errorf("core: build state has observed nothing")
	}
	ex := opts.explain()
	if ex != nil {
		ex.reset(duration)
	}
	strict := opts.endLatency() == constraints.StrictEnd
	prevLen := st.prevLen
	if strict != st.prevStrict {
		prevLen = 0
	}
	backStart := time.Now()

	// The pass rewrites the columns of the levels it recomputes, so until it
	// succeeds none of them may be reused.
	st.prevLen = 0
	st.grow()
	condemned := condemnTargets(st.levels[duration-1], strict, st.surv[duration-1])

	// Backward sweep, newest level first, checking convergence after each
	// level.
	boundary := 0
	for t := duration - 2; t >= 0; t-- {
		surv := resize(st.spare, len(st.levels[t]))
		st.spare = surv
		removed, ok := conditionLevel(st.levels[t], st.surv[t+1], surv)
		if !ok {
			return nil, ErrNoValidTrajectory
		}
		st.bRemoved[t] = removed
		// NaNs cannot appear (survivals are finite sums and quotients of
		// probabilities), so == is bit equality here.
		if t >= 1 && t < prevLen && slices.Equal(st.surv[t], surv) {
			boundary = t
			break
		}
		copy(st.surv[t], surv)
	}

	normalizer := st.normalizer
	if boundary == 0 {
		st.src = resize(st.src, len(st.levels[0]))
		var ok bool
		if normalizer, ok = conditionSources(st.levels[0], st.surv[0], st.src); !ok {
			return nil, ErrNoValidTrajectory
		}
		st.number(st.levels, 0)
	}
	// Converged otherwise: level boundary's survivals (and hence removals)
	// are bitwise what the previous pass computed, so everything below
	// would recondition identically, and the previous snapshot's prefix is
	// reused. The boundary level keeps the previous pass's numbering (and
	// ghost count), which the prefix's arcs into it index.
	backNanos := time.Since(backStart).Nanoseconds()
	reviseStart := time.Now()

	for t := boundary + 1; t < duration; t++ {
		_, st.ghosts[t] = st.number(st.levels, t)
	}
	g := freeze(st.snap, boundary, st.levels, &st.pass)

	// Commit the bookkeeping for the next pass.
	st.prevLen = duration
	st.prevStrict = strict
	st.normalizer = normalizer
	st.snap = g

	if ex != nil {
		ex.ForwardNanos = st.forwardNanos
		ex.BackwardNanos = backNanos
		copy(ex.Steps, st.steps)
		ex.PrunedDU = st.prunes[pruneDU]
		ex.PrunedLT = st.prunes[pruneLT]
		ex.PrunedTT = st.prunes[pruneTT]
		ex.TargetsCondemned = condemned
		for t := 0; t < duration-1; t++ {
			ex.BackwardRemoved += st.bRemoved[t]
		}
		for t := 1; t < duration; t++ {
			ex.GhostsRemoved += st.ghosts[t]
		}
		ex.Normalizer = normalizer
		ex.ReusedLevels = boundary
		ex.RecomputedLevels = duration - boundary
		for t := range ex.Steps {
			ex.Steps[t].NodesFinal = g.Level(t).Width()
		}
		ex.ReviseNanos = time.Since(reviseStart).Nanoseconds()
	}
	if opts.quotient() {
		// The state keeps g as its snapshot, so the quotient is a copy.
		return g.Quotient(), nil
	}
	return g, nil
}

// grow gives the levels observed since the last Smooth their pass columns,
// carved from one allocation of each kind.
func (st *BuildState) grow() {
	fresh := st.levels[len(st.surv):]
	n := 0
	for _, level := range fresh {
		n += len(level)
	}
	floats, ints := make([]float64, n), make([]int32, n)
	n = 0
	for _, level := range fresh {
		end := n + len(level)
		st.surv = append(st.surv, floats[n:end:end])
		st.idx = append(st.idx, ints[n:end:end])
		st.bRemoved = append(st.bRemoved, 0)
		st.ghosts = append(st.ghosts, 0)
		n = end
	}
}
