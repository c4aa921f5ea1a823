package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/constraints"
	"repro/internal/obs"
)

// ErrNoValidTrajectory is returned by Build when the constraints rule out
// every trajectory compatible with the readings: the conditioning event has
// probability zero and the conditioned distribution is undefined.
var ErrNoValidTrajectory = errors.New("core: no trajectory satisfies the integrity constraints")

// Options configures Build. The zero value is ready to use.
type Options struct {
	// EndLatency selects how latency constraints treat stays truncated by
	// the end of the window. The default, constraints.StrictEnd, follows
	// Definition 2; constraints.LenientEnd follows Algorithm 1 as printed
	// (see DESIGN.md §3).
	EndLatency constraints.EndLatencyMode

	// Explain, when non-nil, is reset and filled by Build with a cleaning
	// explain report (per-phase wall times, per-timestamp candidate counts,
	// per-constraint prune counters). The report is written by the build
	// goroutine with no synchronization: callers running concurrent builds
	// must give each its own Options value.
	Explain *BuildExplain
}

func (o *Options) endLatency() constraints.EndLatencyMode {
	if o == nil {
		return constraints.StrictEnd
	}
	return o.EndLatency
}

func (o *Options) explain() *BuildExplain {
	if o == nil {
		return nil
	}
	return o.Explain
}

// Build runs Algorithm 1: it constructs the conditioned trajectory graph of
// the l-sequence under the integrity constraints.
//
// The forward phase (lines 1-14 of the paper) is the shared kernel of
// forward.go: it grows the graph timestamp by timestamp, materializing only
// successors permitted by Definition 3 and labeling edges with the a-priori
// step probabilities; nodes and edges come from arenas.
//
// The backward phase implements the same revision as the paper's
// loss-propagation queue (lines 15-31) in its closed form: for every node,
// the "survival" S(n) — the fraction of the a-priori probability mass of the
// trajectories compatible with n that is valid, i.e. 1 − n.loss in the
// paper's bookkeeping — satisfies
//
//	S(target) = 1 (0 for targets condemned by strict end-of-window latency)
//	S(n)      = Σ_{(n,m) ∈ E} p_E(n,m) · S(m)
//
// and the conditioned probabilities are p'_E(n,m) = p_E(n,m)·S(m)/S(n) and
// p'_N(src) = p_N(src)·S(src) / Σ p_N·S. The paper's queue evaluates exactly
// this recurrence incrementally; evaluating it level by level visits the
// same nodes and lets us rescale each timestamp's survivals by their
// maximum, which keeps 1−loss well above the float64 underflow threshold on
// hours-long windows (survivals can legitimately shrink geometrically with
// the window length; the conditioned probabilities only ever depend on
// survival ratios within a timestamp, which rescaling preserves).
//
// Build returns ErrNoValidTrajectory when the constraints exclude every
// interpretation of the readings.
func Build(ls *LSequence, ic *constraints.Set, opts *Options) (*Graph, error) {
	return BuildCtx(context.Background(), ls, ic, opts)
}

// BuildCtx is Build with observability: when ctx carries an obs.Trace the
// compile/forward/backward/revise phases record spans into it, and when
// opts.Explain is set the report is filled. With neither attached it is
// byte-for-byte the same work as Build — the span calls are no-ops that
// allocate nothing (internal/obs) and the explain branches are nil checks.
func BuildCtx(ctx context.Context, ls *LSequence, ic *constraints.Set, opts *Options) (*Graph, error) {
	if err := ls.Validate(); err != nil {
		return nil, err
	}
	duration := ls.Duration()
	ex := opts.explain()
	if ex != nil {
		ex.reset(duration)
	}
	ctx, spBuild := obs.Start(ctx, "core.build")
	defer spBuild.End()
	spBuild.Int("timestamps", int64(duration))

	_, spCompile := obs.Start(ctx, "core.compile")
	phaseStart := time.Now()
	k := newKernel(ic)
	if ex != nil {
		ex.CompileNanos = time.Since(phaseStart).Nanoseconds()
		phaseStart = time.Now()
	}
	spCompile.End()
	_, spForward := obs.Start(ctx, "core.forward")

	// Forward phase (lines 1-14): the sources, then expand+link per level.
	g := &Graph{byTime: make([][]*Node, duration)}
	g.byTime[0] = k.sources(ls.Steps[0].Candidates, nil)
	if ex != nil {
		ex.Steps[0] = k.step
	}
	for t := 1; t < duration; t++ {
		cur, cands := g.byTime[t-1], ls.Steps[t].Candidates
		next := k.expand(t, cur, cands, make([]*Node, 0, len(cur)), nil)
		if ex != nil {
			ex.Steps[t] = k.step
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
		}
		k.link(cur, next, cands)
		g.byTime[t] = next
	}

	spForward.End()
	if ex != nil {
		ex.PrunedDU = k.prunes[pruneDU]
		ex.PrunedLT = k.prunes[pruneLT]
		ex.PrunedTT = k.prunes[pruneTT]
		ex.ForwardNanos = time.Since(phaseStart).Nanoseconds()
		phaseStart = time.Now()
	}
	_, spBackward := obs.Start(ctx, "core.backward")

	// Backward phase (lines 15-31 in closed form; see above).
	// Target survivals: 1, except targets condemned by strict
	// end-of-window latency semantics (Definition 2).
	strict := opts.endLatency() == constraints.StrictEnd
	condemned := condemnTargets(g.byTime[duration-1], strict)
	g.detachRemoved(duration - 1)

	backwardRemoved := 0
	for t := duration - 2; t >= 0; t-- {
		removed, ok := conditionLevel(g.byTime[t])
		backwardRemoved += removed
		if !ok {
			return nil, ErrNoValidTrajectory
		}
		g.detachRemoved(t)
	}

	spBackward.End()
	if ex != nil {
		ex.BackwardNanos = time.Since(phaseStart).Nanoseconds()
		phaseStart = time.Now()
	}
	_, spRevise := obs.Start(ctx, "core.revise")
	defer spRevise.End()

	// Condition the source probabilities (lines 30-31).
	total, ok := conditionSources(g.byTime[0])
	if !ok {
		return nil, ErrNoValidTrajectory
	}
	ghosts := g.scrubOrphans()
	g.compact()
	if ex != nil {
		ex.TargetsCondemned = condemned
		ex.BackwardRemoved = backwardRemoved
		ex.GhostsRemoved = ghosts
		ex.Normalizer = total
		ex.RecomputedLevels = duration
		for t := range g.byTime {
			ex.Steps[t].NodesFinal = len(g.byTime[t])
		}
		ex.ReviseNanos = time.Since(phaseStart).Nanoseconds()
	}
	return g, nil
}

// condemnTargets initializes the target survivals (the backward recurrence's
// base case): 1, except targets condemned by strict end-of-window latency
// semantics (Definition 2), which get survival 0 and are removed. Returns the
// number of condemned targets. Shared by Build and BuildState.Smooth so both
// paths run the identical operations in the identical order.
func condemnTargets(nodes []*Node, strict bool) int {
	condemned := 0
	for _, n := range nodes {
		if strict && n.Stay != StayUntracked {
			n.surv = 0
			n.removed = true
			condemned++
		} else {
			n.surv = 1
		}
	}
	return condemned
}

// conditionLevel runs one backward iteration (lines 15-29 in closed form)
// over the nodes of a single timestamp: it drops edges into removed
// successors, accumulates each node's survival, conditions the surviving
// out-edges, and rescales the level's survivals by their maximum so the
// recurrence never underflows (conditioned probabilities depend only on
// within-level survival ratios, which rescaling preserves). ok is false when
// the whole level died — i.e. no valid trajectory exists. The caller must
// follow up with detachRemoved for this timestamp. Shared by Build and
// BuildState.Smooth: keeping the float operations in one body is what makes
// the incremental path bit-identical to the offline one.
func conditionLevel(nodes []*Node) (removed int, ok bool) {
	maxS := 0.0
	for _, n := range nodes {
		// Drop edges into removed nodes, accumulate survival,
		// and store the unconditioned weight on each edge.
		alive := n.out[:0]
		s := 0.0
		for _, e := range n.out {
			if e.To.removed {
				continue
			}
			e.P *= e.To.surv
			s += e.P
			alive = append(alive, e)
		}
		n.out = alive
		n.surv = s
		if s > maxS {
			maxS = s
		}
		if s == 0 {
			// Proposition 1: no successor => invalid. s can also hit
			// zero by underflow when every surviving edge weight is
			// below the smallest denormal; either way the node carries
			// no representable valid mass and is pruned.
			n.removed = true
			removed++
			continue
		}
		// Condition the outgoing edges (lines 17-19): each is
		// divided by the surviving fraction.
		for _, e := range n.out {
			e.P /= s
		}
	}
	if maxS == 0 {
		return removed, false
	}
	for _, n := range nodes {
		n.surv /= maxS
	}
	return removed, true
}

// conditionSources conditions the source probabilities (lines 30-31):
// p'_N(src) = p_N(src)·S(src) / Σ p_N·S. ok is false when no source retains
// positive mass. Shared by Build and BuildState.Smooth.
func conditionSources(nodes []*Node) (total float64, ok bool) {
	for _, src := range nodes {
		src.prob *= src.surv
		total += src.prob
	}
	if total <= 0 {
		return total, false
	}
	for _, src := range nodes {
		src.prob /= total
	}
	return total, true
}

// detachRemoved unlinks a removed node at timestamp t from both sides of its
// adjacency (lines 26-29 of the paper): its in-edges disappear from the
// predecessors' out lists and its out-edges from the successors' in lists.
// Forgetting the second half used to leave dangling in-edges pointing at
// removed nodes whenever a node died with surviving out-edges (possible only
// through survival underflow within a level).
func (g *Graph) detachRemoved(t int) {
	detachRemovedLevel(g.byTime[t])
}

// detachRemovedLevel is detachRemoved over an explicit node list, so
// BuildState.Smooth can apply it to cloned levels.
func detachRemovedLevel(nodes []*Node) {
	for _, n := range nodes {
		if !n.removed {
			continue
		}
		for _, e := range n.in {
			removeOutEdge(e.From, e)
		}
		for _, e := range n.out {
			removeInEdge(e.To, e)
		}
		n.in = nil
		n.out = nil
	}
}

// scrubOrphans removes nodes whose predecessors were all removed by the
// backward phase. The backward sweep visits levels last-to-first, so a node
// orphaned by removals one level earlier keeps a positive survival and used
// to outlive compact() as an unreachable ghost. Sweeping forward cascades
// the removal: an orphan's own successors lose its in-edges immediately and
// are re-examined on the next iteration. Orphans carry zero forward mass, so
// conditioned probabilities are unaffected; a level can never lose all its
// nodes here, because that would require the previous level to have been
// fully removed, which the backward phase already reports as
// ErrNoValidTrajectory. Returns the number of ghosts removed.
func (g *Graph) scrubOrphans() int {
	ghosts := 0
	for t := 1; t < len(g.byTime); t++ {
		ghosts += scrubLevelOrphans(g.byTime[t])
	}
	return ghosts
}

// scrubLevelOrphans removes the orphans of a single timestamp: nodes whose
// predecessors were all removed. Per-level so BuildState.Smooth can sweep
// only the recomputed suffix.
func scrubLevelOrphans(nodes []*Node) int {
	ghosts := 0
	for _, n := range nodes {
		if n.removed {
			continue
		}
		alive := n.in[:0]
		for _, e := range n.in {
			if !e.From.removed {
				alive = append(alive, e)
			}
		}
		n.in = alive
		if len(n.in) == 0 {
			n.removed = true
			ghosts++
			for _, e := range n.out {
				removeInEdge(e.To, e)
			}
			n.out = nil
		}
	}
	return ghosts
}

// compact drops removed nodes from the per-timestamp lists and reassigns the
// dense per-level indices to match the surviving positions.
func (g *Graph) compact() {
	for t := range g.byTime {
		compactLevel(&g.byTime[t])
	}
}

// compactLevel drops the removed nodes of a single timestamp in place and
// reassigns the dense per-level indices.
func compactLevel(nodes *[]*Node) {
	alive := (*nodes)[:0]
	for _, n := range *nodes {
		if !n.removed {
			n.idx = int32(len(alive))
			alive = append(alive, n)
		}
	}
	*nodes = alive
}

// resize returns s with length n, reallocating only when the capacity is too
// small. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Arena block sizes: big enough to amortize allocation, small enough not to
// strand memory on tiny graphs.
const (
	nodeBlockSize = 256
	edgeBlockSize = 1024
	ptrBlockSize  = 4096
)

// builder holds the constraint set plus the allocation state of the forward
// kernel (forward.go): the compiled constraint view, the TL interner, a
// scratch slice for assembling successor TLs, and node/edge arenas. Blocks
// are never reallocated once handed out, so node and edge pointers stay
// stable.
type builder struct {
	cs      *constraints.Compiled
	tl      *tlInterner
	scratch []TLEntry
	nodes   []Node
	edges   []Edge
	ptrs    []*Edge
}

func newBuilder(ic *constraints.Set) builder {
	return builder{cs: ic.Compile(), tl: newTLInterner()}
}

// newNode allocates a node from the arena. tl must be a canonical interned
// slice (or nil).
func (b *builder) newNode(t, loc, stay int, tl []TLEntry) *Node {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = make([]Node, 0, nodeBlockSize)
	}
	b.nodes = b.nodes[:len(b.nodes)+1]
	n := &b.nodes[len(b.nodes)-1]
	*n = Node{Time: t, Loc: loc, Stay: stay, TL: tl}
	return n
}

// newEdge allocates an edge from the arena.
func (b *builder) newEdge(from, to *Node, p float64) *Edge {
	if len(b.edges) == cap(b.edges) {
		b.edges = make([]Edge, 0, edgeBlockSize)
	}
	b.edges = b.edges[:len(b.edges)+1]
	e := &b.edges[len(b.edges)-1]
	*e = Edge{From: from, To: to, P: p}
	return e
}

// cloneNode copies a node's value (identity, probabilities, idx) into the
// arena in one block copy, detaching it from the source's adjacency. Used by
// the incremental bulk copies, where the field-by-field newNode path showed
// up in profiles.
func (b *builder) cloneNode(n *Node) *Node {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = make([]Node, 0, nodeBlockSize)
	}
	b.nodes = b.nodes[:len(b.nodes)+1]
	c := &b.nodes[len(b.nodes)-1]
	*c = *n
	c.out, c.in = nil, nil
	return c
}

// grow ensures the arena can hold n more nodes, e more edges and p more
// edge-pointer slots without falling back to chunked blocks, so a bulk copy
// of known size allocates at most three exact blocks.
func (b *builder) grow(n, e, p int) {
	if cap(b.nodes)-len(b.nodes) < n {
		b.nodes = make([]Node, 0, n)
	}
	if cap(b.edges)-len(b.edges) < e {
		b.edges = make([]Edge, 0, e)
	}
	if cap(b.ptrs)-len(b.ptrs) < p {
		b.ptrs = make([]*Edge, 0, p)
	}
}

// carve returns an empty edge list with capacity exactly n, cut from the
// pointer arena. The three-index slice expression caps each list at its own
// region, so lists carved from one block can never grow into each other.
func (b *builder) carve(n int) []*Edge {
	if n == 0 {
		return nil
	}
	if cap(b.ptrs)-len(b.ptrs) < n {
		size := ptrBlockSize
		if n > size {
			size = n
		}
		b.ptrs = make([]*Edge, 0, size)
	}
	s := b.ptrs[len(b.ptrs) : len(b.ptrs) : len(b.ptrs)+n]
	b.ptrs = b.ptrs[:len(b.ptrs)+n]
	return s
}

// initialStay returns the stay counter of a node entering loc (or starting
// the window there): 1 when a latency constraint is pending, ⊥ otherwise.
func (b *builder) initialStay(loc int) int {
	if delta, ok := b.cs.Latency(loc); ok && delta > 1 {
		return 1
	}
	return StayUntracked
}

// successorKey computes the identity of the unique successor node of n at
// location loc per Definition 3. The returned pruneReason is pruneNone on
// success; otherwise it names the constraint family that ruled the successor
// out, so the kernel can attribute prunes per constraint kind in explain
// reports. The successor's TL is assembled in the builder's scratch slice and
// interned, so checking a candidate that deduplicates onto an existing node
// allocates nothing.
func (b *builder) successorKey(n *Node, loc int) (nodeKey, pruneReason) {
	t2 := n.Time + 1
	// Condition 2: direct reachability.
	if b.cs.Unreachable(n.Loc, loc) {
		return nodeKey{}, pruneDU
	}
	if loc == n.Loc {
		// Condition 3: staying increments a pending stay counter.
		stay := n.Stay
		if stay != StayUntracked {
			stay++
			if delta, _ := b.cs.Latency(loc); stay >= delta {
				stay = StayUntracked // constraint satisfied: normalize to ⊥
			}
		}
		id := b.internTL(n.TL, t2, -1, nil)
		return nodeKey{loc: int32(loc), stay: int32(stay), tl: id}, pruneNone
	}
	// Condition 4: leaving is allowed only once any latency constraint on
	// the current location is satisfied (pending counter normalized away).
	if n.Stay != StayUntracked {
		return nodeKey{}, pruneLT
	}
	// Condition 5 (extended to cover the direct move, see DESIGN.md §3):
	// no TT constraint into loc may still bind, neither from a recently
	// left location in TL nor from the location being left right now.
	if nu, ok := b.cs.TT(n.Loc, loc); ok && t2-n.Time < nu {
		return nodeKey{}, pruneTT
	}
	for _, e := range n.TL {
		if nu, ok := b.cs.TT(e.Loc, loc); ok && t2-e.Time < nu {
			return nodeKey{}, pruneTT
		}
	}
	// Condition 6: extend TL with the location being left (when it is the
	// source of some TT constraint), expire stale entries, and drop any
	// entry for the location being entered.
	var add *TLEntry
	if b.cs.HasTTFrom(n.Loc) && t2-n.Time < b.cs.MaxTravelingTime(n.Loc) {
		add = &TLEntry{Time: n.Time, Loc: n.Loc}
	}
	id := b.internTL(n.TL, t2, loc, add)
	return nodeKey{loc: int32(loc), stay: int32(b.initialStay(loc)), tl: id}, pruneNone
}

// internTL builds the successor TL in the scratch slice — the entries of tl
// still able to influence a TT check at time t2, minus any entry for
// location drop, plus the optional add entry — and returns its interned ID.
func (b *builder) internTL(tl []TLEntry, t2, drop int, add *TLEntry) tlID {
	s := b.scratch[:0]
	for _, e := range tl {
		if e.Loc == drop {
			continue
		}
		if t2-e.Time >= b.cs.MaxTravelingTime(e.Loc) {
			continue
		}
		s = append(s, e)
	}
	if add != nil {
		s = append(s, *add)
		sortTL(s)
	}
	b.scratch = s
	return b.tl.intern(s)
}

// removeOutEdge removes e from pred's outgoing edge list.
func removeOutEdge(pred *Node, e *Edge) {
	for i, cand := range pred.out {
		if cand == e {
			pred.out[i] = pred.out[len(pred.out)-1]
			pred.out = pred.out[:len(pred.out)-1]
			return
		}
	}
}

// removeInEdge removes e from succ's incoming edge list.
func removeInEdge(succ *Node, e *Edge) {
	for i, cand := range succ.in {
		if cand == e {
			succ.in[i] = succ.in[len(succ.in)-1]
			succ.in = succ.in[:len(succ.in)-1]
			return
		}
	}
}
