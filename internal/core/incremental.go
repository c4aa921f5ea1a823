package core

import (
	"fmt"
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
// and never conditioned in place. Each Smooth clones the levels it needs to
// recompute and runs the same per-level helpers as Build (condemnTargets,
// conditionLevel, conditionSources, scrubLevelOrphans, detachRemovedLevel) on
// the clones, so every float operation happens in the same order as a full
// offline Build over the same readings — the smoothed marginals are
// bit-identical, not merely close.
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
	// construction order (idx = position; never compacted).
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
	// (0 = none yet). bsurv[t] stores level t's post-rescale survival
	// vector in raw node order; bRemoved[t]/ghosts[t] the per-level
	// backward-removal and orphan counts; finalIdx[t] the raw indices of
	// the nodes that survived into the snapshot, ascending. snap is the
	// frozen graph the last Smooth returned.
	prevLen    int
	prevStrict bool
	bsurv      [][]float64
	bRemoved   []int
	ghosts     []int
	finalIdx   [][]int32
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
		st.link(st.level, next, candidates)
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
		byLoc[n.Loc] += st.alphas[i]
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

	// Clone arena for this pass: the frozen result owns none of it, so its
	// blocks go back to the pools at the end. The zero builder is a pure
	// allocator (no constraint or interner state), which is all cloning
	// needs.
	var cb builder
	defer cb.release()
	clones := make([][]*node, duration)
	clones[duration-1] = cloneLevel(&cb, st.levels[duration-1])
	condemned := condemnTargets(clones[duration-1], strict)

	// Backward sweep over clones, newest level first. Each iteration first
	// materializes level t's clone edges (which is when level t+1's deferred
	// detach can run — removal permutes the predecessors' out lists exactly
	// as in Build), then conditions level t, then checks convergence.
	bsurvNew := make([][]float64, duration)
	bRemovedNew := make([]int, duration)
	boundary := 0
	for t := duration - 2; t >= 0; t-- {
		clones[t] = cloneLevel(&cb, st.levels[t])
		cloneEdges(&cb, st.levels[t], st.levels[t+1], clones[t], clones[t+1])
		detachRemovedLevel(clones[t+1])
		removed, ok := conditionLevel(clones[t])
		if !ok {
			return nil, ErrNoValidTrajectory
		}
		bRemovedNew[t] = removed
		bsurvNew[t] = survivals(clones[t])
		if t >= 1 && t < prevLen && float64sEqual(st.bsurv[t], bsurvNew[t]) {
			boundary = t
			break
		}
	}
	bsurvNew[duration-1] = survivals(clones[duration-1])

	normalizer := st.normalizer
	detachRemovedLevel(clones[boundary])
	if boundary == 0 {
		var ok bool
		normalizer, ok = conditionSources(clones[0])
		if !ok {
			return nil, ErrNoValidTrajectory
		}
	}
	// Converged otherwise: level boundary's survivals (and hence removals)
	// are bitwise what the previous pass computed, so everything below
	// would recondition identically, and the previous snapshot's prefix is
	// reused.
	backNanos := time.Since(backStart).Nanoseconds()
	reviseStart := time.Now()

	// Scrub and compact the recomputed suffix. Record the per-level
	// survivor sets first: compact rewrites the level slices in place. The
	// predecessors of a convergence boundary are the reused prefix, whose
	// arcs reach exactly the boundary nodes that survived the previous
	// pass; every other node still standing there is an orphan.
	ghostsNew := make([]int, duration)
	if boundary > 0 {
		ghostsNew[boundary] = scrubBoundary(clones[boundary], st.finalIdx[boundary])
	}
	for t := boundary + 1; t < duration; t++ {
		ghostsNew[t] = scrubLevelOrphans(clones[t])
	}
	finalIdxNew := make([][]int32, duration)
	for t := boundary; t < duration; t++ {
		finalIdxNew[t] = surviving(clones[t])
		compactLevel(&clones[t])
	}
	// The boundary level keeps the previous pass's survivors in the same
	// order, so the prefix's arcs into it index it unchanged.
	g := freeze(st.snap, boundary, clones)

	// Commit the bookkeeping for the next pass.
	st.bsurv = resizeZero(st.bsurv, duration)
	st.bRemoved = resizeZero(st.bRemoved, duration)
	st.ghosts = resizeZero(st.ghosts, duration)
	st.finalIdx = resizeZero(st.finalIdx, duration)
	for t := boundary; t < duration; t++ {
		st.bsurv[t] = bsurvNew[t]
		st.bRemoved[t] = bRemovedNew[t]
		st.ghosts[t] = ghostsNew[t]
		st.finalIdx[t] = finalIdxNew[t]
	}
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

// scrubBoundary removes the orphans of the boundary level of a converged
// Smooth: every node still standing but not kept (the raw positions of the
// previous pass's survivors, ascending). Returns how many it removed.
func scrubBoundary(nodes []*node, kept []int32) int {
	ghosts := 0
	for i, n := range nodes {
		if len(kept) > 0 && kept[0] == int32(i) {
			kept = kept[1:]
			continue
		}
		if n.removed {
			continue
		}
		n.removed = true
		ghosts++
		for _, e := range n.out {
			removeInEdge(e.To, e)
		}
		n.out = nil
	}
	return ghosts
}

// cloneLevel copies one timestamp's raw nodes (identity fields and source
// probability; no edges) into the clone arena, preserving order.
func cloneLevel(cb *builder, raw []*node) []*node {
	out := make([]*node, len(raw))
	for i, n := range raw {
		out[i] = cb.cloneNode(n)
	}
	return out
}

// cloneEdges copies the raw edges between two consecutive levels onto their
// clones, carving exact-capacity adjacency like the forward phase so the
// clone lists start in raw construction order.
func cloneEdges(cb *builder, raw, rawNext, cur, next []*node) {
	for j, m := range rawNext {
		next[j].in = cb.carve(len(m.in))
	}
	for i, n := range raw {
		cur[i].out = cb.carve(len(n.out))
		for _, e := range n.out {
			to := next[e.To.idx]
			ce := cb.newEdge(cur[i], to, e.P)
			cur[i].out = append(cur[i].out, ce)
			to.in = append(to.in, ce)
		}
	}
}

// survivals snapshots a level's post-rescale survival vector in level order.
func survivals(nodes []*node) []float64 {
	s := make([]float64, len(nodes))
	for i, n := range nodes {
		s[i] = n.surv
	}
	return s
}

// surviving returns the positions of the non-removed nodes, ascending.
func surviving(nodes []*node) []int32 {
	idx := make([]int32, 0, len(nodes))
	for i, n := range nodes {
		if !n.removed {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// float64sEqual reports bitwise equality of two equal-meaning vectors. NaNs
// cannot appear (survivals are finite sums and quotients of probabilities),
// so == is bit equality here.
func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resizeZero grows s to length n, zeroing any recycled tail slots.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s)
		return grown
	}
	var zero T
	for i := len(s); i < n; i++ {
		s = append(s, zero)
	}
	return s[:n]
}
