package core

import (
	"fmt"
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
// the previous snapshot's prefix is reused (deep-copied and stitched to the
// fresh suffix) instead of recomputed. Survivals rescale to exactly 1 at
// unambiguous timestamps, so on real streams convergence is reached within a
// handful of levels of the newest reading.
//
// Each Smooth returns an independent Graph: callers may retain earlier
// results (e.g. a trajectory store) while the session keeps smoothing.
//
// A BuildState also maintains the normalized forward mass of the newest
// level, so for exact (beam-less) sessions it answers the same frontier
// queries as Filter — Distribution, TopLocations, FrontierSize — with
// bit-identical values, making a separate Filter per session redundant.
//
// BuildState is not safe for concurrent use.
type BuildState struct {
	// frontier is the forward pass: its level is the newest of levels
	// (until a dead end empties it).
	frontier

	// levels[t] holds the raw (unconditioned) nodes of timestamp t in
	// construction order (idx = position; never compacted).
	levels [][]*Node

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
	// graph the last Smooth returned, treated as immutable.
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
	return &BuildState{frontier: newFrontier(ic)}
}

// Duration returns the number of observed timestamps.
func (st *BuildState) Duration() int { return len(st.levels) }

// Observe appends one timestamp to the raw graph: the forward kernel's
// expand and link, exactly as Build runs them. It returns
// ErrNoValidTrajectory when no continuation is consistent with the
// constraints; the already observed prefix stays smoothable, but no further
// readings are accepted.
func (st *BuildState) Observe(candidates []Candidate) error {
	start := time.Now()
	defer func() { st.forwardNanos += time.Since(start).Nanoseconds() }()
	prev, err := st.advance(candidates, make([]*Node, 0, len(st.level)), 0)
	if err != nil {
		return err
	}
	if prev != nil {
		st.link(prev, st.level, candidates)
	}
	st.levels = append(st.levels, st.level)
	st.steps = append(st.steps, st.step)
	return nil
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

	// Clone arena for this pass: the result graph owns it, so every Smooth
	// is independent. The zero builder is a pure allocator (no constraint
	// or interner state), which is all cloning needs.
	var cb builder
	clones := make([][]*Node, duration)
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

	var g *Graph
	normalizer := st.normalizer
	if boundary > 0 {
		// Converged: level boundary's survivals (and hence removals) are
		// bitwise what the previous pass computed, so everything below
		// would recondition identically. Finish the deferred detach of the
		// boundary level, then reuse the previous snapshot's prefix.
		detachRemovedLevel(clones[boundary])
		g = st.assembleWithPrefix(&cb, clones, boundary)
	} else {
		detachRemovedLevel(clones[0])
		var ok bool
		normalizer, ok = conditionSources(clones[0])
		if !ok {
			return nil, ErrNoValidTrajectory
		}
		g = &Graph{byTime: clones}
	}
	backNanos := time.Since(backStart).Nanoseconds()
	reviseStart := time.Now()

	// Scrub and compact the recomputed suffix (the reused prefix is already
	// scrubbed and dense). Record the per-level survivor sets first: compact
	// rewrites the level slices in place.
	ghostsNew := make([]int, duration)
	scrubFrom := boundary
	if scrubFrom < 1 {
		scrubFrom = 1
	}
	for t := scrubFrom; t < duration; t++ {
		ghostsNew[t] = scrubLevelOrphans(g.byTime[t])
	}
	finalIdxNew := make([][]int32, duration)
	for t := boundary; t < duration; t++ {
		finalIdxNew[t] = surviving(g.byTime[t])
		compactLevel(&g.byTime[t])
	}

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
		for t := range g.byTime {
			ex.Steps[t].NodesFinal = len(g.byTime[t])
		}
		ex.ReviseNanos = time.Since(reviseStart).Nanoseconds()
	}
	return g, nil
}

// assembleWithPrefix builds the result graph by deep-copying levels
// 0..boundary-1 of the previous snapshot and stitching the copied boundary
// edges onto the fresh clones of the boundary level. Edges out of level
// boundary-1 in the snapshot point at snapshot nodes, whose dense index maps
// back to the raw (clone) position through finalIdx[boundary].
func (st *BuildState) assembleWithPrefix(cb *builder, clones [][]*Node, boundary int) *Graph {
	g := &Graph{byTime: clones}
	fidx := st.finalIdx[boundary]
	snapB := st.snap.byTime[boundary]
	// Count the prefix once and pre-size the arena so the bulk copy below
	// cuts three exact blocks instead of churning through chunk allocations
	// — on a long-lived session this copy IS the cost of a Smooth, and the
	// allocator overhead was rivaling the copy itself. Every prefix edge
	// consumes one out slot and one in slot (boundary in-lists included), so
	// the pointer arena needs exactly 2*edges.
	nodes, edges := 0, 0
	for t := 0; t < boundary; t++ {
		nodes += len(st.snap.byTime[t])
		for _, n := range st.snap.byTime[t] {
			edges += len(n.out)
		}
	}
	cb.grow(nodes, edges, 2*edges)
	// Cut the three blocks once and fill through local cursors: the
	// per-element arena methods (capacity check, method call) were a
	// measurable slice of the copy on 500-level sessions.
	nslab := cb.nodes[len(cb.nodes) : len(cb.nodes)+nodes]
	cb.nodes = cb.nodes[:len(cb.nodes)+nodes]
	eslab := cb.edges[len(cb.edges) : len(cb.edges)+edges]
	cb.edges = cb.edges[:len(cb.edges)+edges]
	pslab := cb.ptrs[len(cb.ptrs) : len(cb.ptrs)+2*edges]
	cb.ptrs = cb.ptrs[:len(cb.ptrs)+2*edges]
	ncur, ecur, pcur := 0, 0, 0
	for j, rawIdx := range fidx {
		if k := len(snapB[j].in); k > 0 {
			clones[boundary][rawIdx].in = pslab[pcur : pcur : pcur+k]
			pcur += k
		}
	}
	nptrs := make([]*Node, nodes) // one slab for every level's node slice
	for t := 0; t < boundary; t++ {
		src := st.snap.byTime[t]
		cp := nptrs[:len(src):len(src)]
		nptrs = nptrs[len(src):]
		for i, n := range src {
			c := &nslab[ncur]
			ncur++
			*c = *n
			c.out = nil
			if k := len(n.in); t > 0 && k > 0 {
				c.in = pslab[pcur : pcur : pcur+k]
				pcur += k
			} else {
				c.in = nil
			}
			cp[i] = c
		}
		g.byTime[t] = cp
	}
	// Copied in lists are refilled in from-node order, which can differ
	// from the snapshot's post-detach order; nothing numeric consumes
	// in-edge order, only membership.
	for t := 0; t < boundary; t++ {
		var next []*Node
		if t+1 < boundary {
			next = g.byTime[t+1]
		}
		for i, n := range st.snap.byTime[t] {
			from := g.byTime[t][i]
			out := pslab[pcur : pcur : pcur+len(n.out)]
			pcur += len(n.out)
			for _, e := range n.out {
				var to *Node
				if next != nil {
					to = next[e.To.idx]
				} else {
					to = clones[boundary][fidx[e.To.idx]]
				}
				ce := &eslab[ecur]
				ecur++
				*ce = Edge{From: from, To: to, P: e.P}
				out = append(out, ce)
				to.in = append(to.in, ce)
			}
			from.out = out
		}
	}
	return g
}

// cloneLevel copies one timestamp's raw nodes (identity fields and source
// probability; no edges) into the clone arena, preserving order.
func cloneLevel(cb *builder, raw []*Node) []*Node {
	out := make([]*Node, len(raw))
	for i, n := range raw {
		out[i] = cb.cloneNode(n)
	}
	return out
}

// cloneEdges copies the raw edges between two consecutive levels onto their
// clones, carving exact-capacity adjacency like the forward phase so the
// clone lists start in raw construction order.
func cloneEdges(cb *builder, raw, rawNext, cur, next []*Node) {
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
func survivals(nodes []*Node) []float64 {
	s := make([]float64, len(nodes))
	for i, n := range nodes {
		s[i] = n.surv
	}
	return s
}

// surviving returns the positions of the non-removed nodes, ascending.
func surviving(nodes []*Node) []int32 {
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
