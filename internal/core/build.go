package core

import (
	"context"
	"errors"
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

	// Quotient makes Build and BuildState.Smooth return the quotient of
	// Algorithm 1's graph (Graph.Quotient) in its place. Build's own graph
	// then never leaves it, so its forward phase drops the TL entries the
	// node's own location already dominates, which can never prune again
	// (the dominance rule, constraints.Compiled.DeadAfter). That merges
	// early some nodes the quotient would merge, and the result encodes
	// byte for byte like Build(…).Quotient(). The explain report describes
	// the graph Build built, which can have fewer nodes than Algorithm 1's.
	// A session from NewBuildState applies the same rule, so its working
	// graph is Build's over the same readings, and its Smooth returns the
	// quotient whatever this field says.
	Quotient bool
}

func (o *Options) endLatency() constraints.EndLatencyMode {
	if o == nil {
		return constraints.StrictEnd
	}
	return o.EndLatency
}

func (o *Options) quotient() bool { return o != nil && o.Quotient }

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
// compile/forward/backward/revise/quotient phases record spans into it, and
// when opts.Explain is set the report is filled. With neither attached it is
// byte-for-byte the same work as Build — the span calls are no-ops that
// allocate nothing (internal/obs) and the explain branches are nil checks.
//
// The build is a BuildState from the pool, stepped once per timestamp and
// smoothed: with opts.Quotient its forward phase applies the dominance rule,
// as a stream session's does, since its graph leaves only as a quotient.
func BuildCtx(ctx context.Context, ls *LSequence, ic *constraints.Set, opts *Options) (*Graph, error) {
	if err := ls.Validate(); err != nil {
		return nil, err
	}
	duration := ls.Duration()
	ctx, spBuild := obs.Start(ctx, "core.build")
	defer spBuild.End()
	spBuild.Int("timestamps", int64(duration))

	_, spCompile := obs.Start(ctx, "core.compile")
	start := time.Now()
	// The graph that leaves Build is frozen, so the kernel goes back to the
	// pool whatever the outcome.
	st := newBuildState(ic, opts.quotient())
	defer st.Release()
	st.levels = make([][]*node, 0, duration)
	compile := time.Since(start).Nanoseconds()
	spCompile.End()

	// Forward phase (lines 1-14), timed once for the whole loop: the
	// validated l-sequence needs none of Observe's per-call checks.
	_, spForward := obs.Start(ctx, "core.forward")
	start = time.Now()
	for _, step := range ls.Steps {
		if err := st.observe(step.Candidates); err != nil {
			spForward.End()
			return nil, err
		}
	}
	st.forwardNanos = time.Since(start).Nanoseconds()
	spForward.End()

	g, err := st.smooth(ctx, opts)
	if ex := opts.explain(); ex != nil {
		ex.CompileNanos = compile
	}
	return g, err
}

// condition runs Algorithm 1's backward phase (lines 15-31 in closed form;
// see Build) over the levels of a working graph, writing the columns of p:
// the target survivals, one conditionLevel per level from the last, the
// conditioned sources, and the numbering of the survivors from the first
// level to the last. When ex is set it fills the backward counters, each
// step's NodesFinal, the normalizer and the backward and revise times; when
// ctx carries a trace it records the core.backward and core.revise spans.
// Build and BuildState.Smooth both run it, so a smooth is bit for bit the
// build over the same readings.
func (p *pass) condition(ctx context.Context, levels [][]*node, strict bool, ex *BuildExplain) error {
	_, sp := obs.Start(ctx, "core.backward")
	start := time.Now()
	duration := len(levels)
	p.columns(levels)
	p.src = resize(p.src, len(levels[0]))
	condemned := condemnTargets(levels[duration-1], strict, p.surv[duration-1])
	removed := 0
	for t := duration - 2; t >= 0; t-- {
		r, ok := conditionLevel(levels[t], p.surv[t+1], p.surv[t])
		removed += r
		if !ok {
			sp.End()
			return ErrNoValidTrajectory
		}
	}
	sp.End()
	if ex != nil {
		ex.BackwardNanos = time.Since(start).Nanoseconds()
		start = time.Now()
	}
	_, sp = obs.Start(ctx, "core.revise")
	defer sp.End()

	// Condition the source probabilities (lines 30-31).
	total, ok := conditionSources(levels[0], p.surv[0], p.src)
	if !ok {
		return ErrNoValidTrajectory
	}
	// Number the survivors, dropping ghosts level by level forward.
	ghosts := 0
	for t := range levels {
		kept, g := p.number(levels, t)
		ghosts += g
		if ex != nil {
			ex.Steps[t].NodesFinal = kept
		}
	}
	if ex != nil {
		ex.TargetsCondemned = condemned
		ex.BackwardRemoved = removed
		ex.GhostsRemoved = ghosts
		ex.Normalizer = total
		ex.ReviseNanos = time.Since(start).Nanoseconds()
	}
	return nil
}

// pass is what Algorithm 1's backward phase writes about a working graph,
// which it only reads: per level, columns indexed like the level's nodes,
// carved from the pass's own arenas. It belongs to a kernel, and a
// BuildState extends it across its Smooths.
type pass struct {
	surv [][]float64 // S(n), rescaled per level; 0 for a removed node
	idx  [][]int32   // index in the frozen graph; -1 for a removed node
	src  []float64   // conditioned p_N of the sources

	floats slab[float64]
	ints   slab[int32]
}

// columns gives the levels of levels past the pass's last column theirs,
// leaving the columns it already has alone; those must be the columns of
// levels' first levels. Contents of new columns are unspecified.
func (p *pass) columns(levels [][]*node) {
	for _, level := range levels[len(p.surv):] {
		p.surv = append(p.surv, p.floats.carve(len(level)))
		p.idx = append(p.idx, p.ints.carve(len(level)))
	}
}

// rewind empties the pass and frees its arenas for reuse.
func (p *pass) rewind() {
	clear(p.surv)
	clear(p.idx)
	p.surv, p.idx, p.src = trim(p.surv), trim(p.idx), trim(p.src)
	p.floats.reset()
	p.ints.reset()
}

// condemnTargets initializes the target survivals (the backward recurrence's
// base case): 1, except targets condemned by strict end-of-window latency
// semantics (Definition 2), which get survival 0 and are removed. Returns the
// number of condemned targets.
func condemnTargets(nodes []*node, strict bool, surv []float64) int {
	condemned := 0
	for i, n := range nodes {
		if strict && n.Stay != StayUntracked {
			surv[i] = 0
			condemned++
		} else {
			surv[i] = 1
		}
	}
	return condemned
}

// weight returns the unconditioned weight p_E(n,m)·S(m) of an arc, next
// holding the survivals of the level it enters. The conversion rounds the
// product, so no platform fuses it into the sum that follows (the Go
// specification allows fused multiply-add otherwise): conditionLevel and
// fill must see the same bits.
func weight(e edge, next []float64) float64 { return float64(e.P * next[e.To]) }

// survival returns Σ_{(n,m) ∈ E} p_E(n,m)·S(m) over n's out-arcs, in their
// order. An arc into a removed node adds +0, which leaves the sum's bits as
// they are.
func survival(n *node, next []float64) float64 {
	s := 0.0
	for _, e := range n.out {
		s += weight(e, next)
	}
	return s
}

// conditionLevel runs one backward iteration (lines 15-29 in closed form)
// over the nodes of a single timestamp: it writes each node's survival into
// surv, given the survivals next of the level after, and rescales the level
// by its maximum so the recurrence never underflows (conditioned
// probabilities depend only on within-level survival ratios, which rescaling
// preserves). A node whose survival is 0 is removed (Proposition 1: no
// successor means invalid; the sum can also hit zero by underflow when every
// arc weight is below the smallest denormal, and then the node carries no
// representable valid mass). ok is false when the whole level died — i.e. no
// valid trajectory exists.
func conditionLevel(nodes []*node, next, surv []float64) (removed int, ok bool) {
	maxS := 0.0
	for i, n := range nodes {
		s := survival(n, next)
		surv[i] = s
		if s > maxS {
			maxS = s
		}
		if s == 0 {
			removed++
		}
	}
	if maxS == 0 {
		return removed, false
	}
	for i := range surv {
		surv[i] /= maxS
	}
	return removed, true
}

// conditionSources conditions the source probabilities (lines 30-31) into
// src: p'_N(src) = p_N(src)·S(src) / Σ p_N·S. ok is false when no source
// retains positive mass.
func conditionSources(nodes []*node, surv, src []float64) (total float64, ok bool) {
	for i, n := range nodes {
		src[i] = n.prob * surv[i]
		total += src[i]
	}
	if total <= 0 {
		return total, false
	}
	for i := range src {
		src[i] /= total
	}
	return total, true
}

// number gives the nodes of level t that survive their index in the frozen
// graph, in level order, and returns how many it keeps and how many ghosts
// it drops. A ghost kept a positive survival, but no surviving node of the
// previous level has an arc into it: the backward sweep visits levels last
// to first, so it cannot see them, and numbering levels first to last
// cascades the removal. Ghosts carry zero forward mass, so conditioned
// probabilities are unaffected; a level can never lose all its nodes here,
// because that would require the previous level to have been fully removed,
// which the backward phase already reports as ErrNoValidTrajectory.
func (p *pass) number(levels [][]*node, t int) (kept, ghosts int) {
	idx := p.idx[t]
	reached := int32(-1)
	if t == 0 {
		reached = 0
	}
	for j := range idx {
		idx[j] = reached
	}
	if t > 0 {
		prev := p.idx[t-1]
		for i, n := range levels[t-1] {
			if prev[i] < 0 {
				continue
			}
			for _, e := range n.out {
				idx[e.To] = 0
			}
		}
	}
	for j, s := range p.surv[t] {
		switch {
		case s == 0:
			idx[j] = -1
		case idx[j] < 0:
			ghosts++
		default:
			idx[j] = int32(kept)
			kept++
		}
	}
	return kept, ghosts
}

// measure returns the shape of the graph freeze writes from the same
// arguments.
func measure(levels [][]*node, p *pass) shape {
	s := shape{levels: len(levels)}
	for t := range levels {
		idx := p.idx[t]
		var next []int32
		if t+1 < len(levels) {
			next = p.idx[t+1]
		}
		for i, n := range levels[t] {
			if idx[i] < 0 {
				continue
			}
			s.nodes++
			if t == 0 {
				s.sources++
			}
			for _, e := range n.out {
				if next[e.To] >= 0 {
					s.arcs++
				}
			}
			s.tls += len(n.TL)
			s.ident = s.ident || n.Stay != StayUntracked || len(n.TL) > 0
		}
	}
	return s
}

// freeze writes the survivors of levels, numbered by p, into a new frozen
// graph.
func freeze(levels [][]*node, p *pass) *Graph {
	g := newGraph(measure(levels, p))
	g.fill(levels, p)
	return g
}

// fill writes the survivors and arcs of freeze's arguments into g, whose
// columns were carved for their shape; with the δ and TL columns left out,
// it skips node identity. An arc's conditioned probability is p_E(n,m)·S(m)
// / S(n) (lines 17-19), S(n) before its level was rescaled.
func (g *Graph) fill(levels [][]*node, p *pass) {
	n, a, e := 0, int32(0), int32(0)
	ident := len(g.tlOff) > 0
	for t := range levels {
		idx := p.idx[t]
		var next []float64
		var nextIdx []int32
		if t+1 < len(levels) {
			next, nextIdx = p.surv[t+1], p.idx[t+1]
		}
		for i, nd := range levels[t] {
			if idx[i] < 0 {
				continue
			}
			g.loc[n] = nd.Loc
			if t == 0 {
				g.src[n] = p.src[i]
			}
			if len(nd.out) > 0 {
				s := survival(nd, next)
				for _, ed := range nd.out {
					if to := nextIdx[ed.To]; to >= 0 {
						g.to[a], g.p[a] = to, weight(ed, next)/s
						a++
					}
				}
			}
			if ident {
				g.stay[n] = nd.Stay
				e += int32(copy(g.tl[e:], nd.TL))
			}
			n++
			g.arcOff[n] = a
			if ident {
				g.tlOff[n] = e
			}
		}
		g.levelOff[t+1] = int32(n)
	}
}

// resize returns s with length n, reallocating only when the capacity is too
// small. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// node is a location node (τ, l, δ, TL) of §4.1 in the working graph that
// Build and BuildState grow; its timestamp τ is its level. Two nodes of a
// level with equal exported fields are the same node; the forward phase
// never materializes duplicates. Once the forward kernel has linked its
// level a node is only read: the backward phase writes into a pass. Nodes
// and edges live only while Build or BuildState works on them: what leaves
// the package is a frozen Graph.
type node struct {
	Loc  int32     // location l
	Stay int32     // δ: length of the current stay while a latency constraint is pending, or StayUntracked (⊥)
	TL   []TLEntry // sorted by Loc; relevant recent leave times for TT checks; interned, do not modify

	out  []edge  // a-priori out-arcs, in candidate order
	prob float64 // a-priori p_N for source nodes
}

// edge is an out-arc of the working graph: the index of its target in the
// next level and its a-priori probability p_E.
type edge struct {
	To int32
	P  float64
}

// builder holds the constraint set plus the allocation state of the forward
// kernel (forward.go): the compiled constraint view, whether the dominance
// rule drops TL entries (set only where the graph leaves as a quotient), the
// TL interner, a scratch slice for assembling successor TLs, and the node,
// edge and level arenas. Arena chunks are never reallocated, so node
// pointers, out-arc lists and levels stay valid until the kernel is put back.
type builder struct {
	cs       *constraints.Compiled
	dominate bool
	tl       *tlInterner
	scratch  []TLEntry

	nodes  slab[node]
	edges  slab[edge]
	levels slab[*node]
}

// rewind makes every arena chunk free for the next build and resets the
// interner. Nothing may use a node, edge, level or TL slice of the builder
// afterwards.
func (b *builder) rewind() {
	b.nodes.reset()
	b.edges.reset()
	b.levels.reset()
	b.tl.reset()
	b.cs, b.dominate = nil, false
}

// newNode allocates a node from the arena. tl must be a canonical interned
// slice (or nil). Every field is written, so what the chunk held before
// never shows.
func (b *builder) newNode(loc, stay int32, tl []TLEntry) *node {
	n := &b.nodes.carve(1)[0]
	*n = node{Loc: loc, Stay: stay, TL: tl}
	return n
}

// carve returns an empty out-arc list with capacity exactly n, cut from the
// edge arena. Its capacity ends where its region does, so lists carved from
// one chunk can never grow into each other.
func (b *builder) carve(n int) []edge {
	if n == 0 {
		return nil
	}
	return b.edges.carve(n)[:0]
}

// initialStay returns the stay counter of a node entering loc (or starting
// the window there): 1 when a latency constraint is pending, ⊥ otherwise.
func (b *builder) initialStay(loc int) int32 {
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
// allocates nothing. t is the timestamp of n.
func (b *builder) successorKey(t int, n *node, loc int) (nodeKey, pruneReason) {
	t2, from := t+1, int(n.Loc)
	// Condition 2: direct reachability.
	if b.cs.Unreachable(from, loc) {
		return nodeKey{}, pruneDU
	}
	if loc == from {
		// Condition 3: staying increments a pending stay counter.
		stay := int(n.Stay)
		if stay != StayUntracked {
			stay++
			if delta, _ := b.cs.Latency(loc); stay >= delta {
				stay = StayUntracked // constraint satisfied: normalize to ⊥
			}
		}
		id := b.internTL(n.TL, t2, loc, -1)
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
	if nu, ok := b.cs.TT(from, loc); ok && t2-t < nu {
		return nodeKey{}, pruneTT
	}
	for _, e := range n.TL {
		if nu, ok := b.cs.TT(e.Loc, loc); ok && t2-e.Time < nu {
			return nodeKey{}, pruneTT
		}
	}
	// Condition 6: extend TL with the location being left, drop entries
	// no longer live and any entry for the location being entered.
	id := b.internTL(n.TL, t2, loc, from)
	return nodeKey{loc: int32(loc), stay: b.initialStay(loc), tl: id}, pruneNone
}

// internTL builds the successor TL in the scratch slice and returns its
// interned ID for a successor at location at and timestamp t2: the entries of
// tl still live, minus any entry for at, plus an entry for location left (-1
// when the move stays) left at t2−1, when that location is a TT source and
// the entry is live. Which entries are live is fixed for the whole build: an
// entry lives until its longest traveling time has passed; with the
// dominance rule, only while at's own constraints do not already hold every
// move it could prune (constraints.Compiled.DeadAfter).
func (b *builder) internTL(tl []TLEntry, t2, at, left int) tlID {
	s := b.scratch[:0]
	live := b.cs.MaxTravelingTimes()
	if b.dominate {
		live = b.cs.DeadAfter(at)
	}
	for _, e := range tl {
		if e.Loc != at && t2-e.Time < int(live[e.Loc]) {
			s = append(s, e)
		}
	}
	if b.cs.HasTTFrom(left) && 1 < live[left] {
		s = append(s, TLEntry{Time: t2 - 1, Loc: left})
		sortTL(s)
	}
	b.scratch = s
	return b.tl.intern(s)
}
