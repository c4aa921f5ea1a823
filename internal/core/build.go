package core

import (
	"context"
	"errors"
	"slices"
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

	// Quotient makes Build return the quotient of Algorithm 1's graph
	// (Graph.Quotient) in its place. Build's own graph then never leaves
	// it, so its forward phase drops the TL entries the node's own location
	// already dominates, which can never prune again (the dominance rule,
	// constraints.Compiled.DeadAfter). That merges early some nodes the
	// quotient would merge, and the result encodes byte for byte like
	// Build(…).Quotient(). The explain report describes the graph Build
	// built, which can have fewer nodes than Algorithm 1's.
	// BuildState.Smooth does not read this field: a session from
	// NewBuildState applies the same rule, so its working graph is Build's
	// over the same readings, and its Smooth always returns the quotient.
	Quotient bool
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
// step probabilities, into the flat columns of a pooled working graph.
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
	st := newBuildState(ic, opts != nil && opts.Quotient)
	defer st.Release()
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
// see Build) over a working graph g, writing the columns of p: the target
// survivals, one conditionLevel per level from the last, the conditioned
// sources, and the numbering of the survivors from the first level to the
// last. When ex is set it fills the backward counters, each step's
// NodesFinal, the normalizer and the backward and revise times; when ctx
// carries a trace it records the core.backward and core.revise spans. Build
// and BuildState.Smooth both run it, so a smooth is bit for bit the build
// over the same readings.
func (p *pass) condition(ctx context.Context, g *Graph, strict bool, ex *BuildExplain) error {
	_, sp := obs.Start(ctx, "core.backward")
	start := time.Now()
	duration := g.Duration()
	p.surv = resize(p.surv, len(g.loc))
	p.idx = resize(p.idx, len(g.loc))
	p.pe = resize(p.pe, len(g.to))
	p.src = resize(p.src, len(g.src))
	condemned := p.condemnTargets(g, strict)
	removed := 0
	for t := duration - 2; t >= 0; t-- {
		r, ok := p.conditionLevel(g, t)
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
	total, ok := p.conditionSources(g)
	if !ok {
		return ErrNoValidTrajectory
	}
	// Number the survivors, dropping ghosts level by level forward.
	ghosts := 0
	for t := 0; t < duration; t++ {
		kept, gh := p.number(g, t)
		ghosts += gh
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
// which it only reads: columns indexed like the graph's nodes and arcs. It
// belongs to a kernel, and a BuildState reuses it across its Smooths.
type pass struct {
	surv []float64 // S(n) of every node, rescaled per level; 0 for a removed node
	idx  []int32   // each node's index in its level of the frozen graph; -1 for a removed node
	pe   []float64 // each arc's conditioned p_E; unspecified for the arcs of a removed node
	src  []float64 // conditioned p_N of the sources
}

// rewind empties the pass for the next build.
func (p *pass) rewind() {
	p.surv, p.idx, p.pe, p.src = trim(p.surv), trim(p.idx), trim(p.pe), trim(p.src)
}

// resize returns s with length n, reallocating only when the capacity is
// too small, and then with append's growth, so a column a session resizes
// at every Smooth is copied O(log n) times. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// condemnTargets initializes the target survivals (the backward recurrence's
// base case): 1, except targets condemned by strict end-of-window latency
// semantics (Definition 2), which get survival 0 and are removed. Returns the
// number of condemned targets.
func (p *pass) condemnTargets(g *Graph, strict bool) int {
	condemned := 0
	for n := g.levelOff[g.Duration()-1]; n < int32(len(g.loc)); n++ {
		if strict && g.stay[n] != StayUntracked {
			p.surv[n] = 0
			condemned++
		} else {
			p.surv[n] = 1
		}
	}
	return condemned
}

// conditionLevel runs one backward iteration (lines 15-29 in closed form)
// over the nodes of timestamp t: it writes each node's survival S(n) = Σ
// p_E(n,m)·S(m) over its out-arcs, in their order, given the survivals of
// the level after, and each arc's conditioned probability p_E(n,m)·S(m) /
// S(n) (lines 17-19). It then rescales the level by its maximum so the
// recurrence never underflows (conditioned probabilities depend only on
// within-level survival ratios, which rescaling preserves). An arc into a
// removed node adds +0, which leaves the sum's bits as they are. A node
// whose survival is 0 is removed (Proposition 1: no successor means
// invalid; the sum can also hit zero by underflow when every arc weight is
// below the smallest denormal, and then the node carries no representable
// valid mass). ok is false when the whole level died — i.e. no valid
// trajectory exists.
func (p *pass) conditionLevel(g *Graph, t int) (removed int, ok bool) {
	lo, hi := g.levelOff[t], g.levelOff[t+1]
	next, surv := p.surv[hi:], p.surv[lo:hi]
	maxS := 0.0
	for n := lo; n < hi; n++ {
		a, b := g.arcOff[n], g.arcOff[n+1]
		s := 0.0
		for k := a; k < b; k++ {
			// The conversion rounds the product, so no platform fuses it
			// into the sum (the Go specification allows fused
			// multiply-add otherwise): p_E must see the same bits.
			w := float64(g.p[k] * next[g.to[k]])
			p.pe[k] = w
			s += w
		}
		for k := a; k < b; k++ {
			p.pe[k] /= s
		}
		surv[n-lo] = s
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
// p.src: p'_N(src) = p_N(src)·S(src) / Σ p_N·S. ok is false when no source
// retains positive mass.
func (p *pass) conditionSources(g *Graph) (total float64, ok bool) {
	for i, pn := range g.src {
		p.src[i] = pn * p.surv[i]
		total += p.src[i]
	}
	if total <= 0 {
		return total, false
	}
	for i := range p.src {
		p.src[i] /= total
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
func (p *pass) number(g *Graph, t int) (kept, ghosts int) {
	lo, hi := g.levelOff[t], g.levelOff[t+1]
	idx := p.idx[lo:hi]
	reached := int32(-1)
	if t == 0 {
		reached = 0
	}
	for j := range idx {
		idx[j] = reached
	}
	if t > 0 {
		for n := g.levelOff[t-1]; n < lo; n++ {
			if p.idx[n] < 0 {
				continue
			}
			for _, to := range g.to[g.arcOff[n]:g.arcOff[n+1]] {
				idx[to] = 0
			}
		}
	}
	for j, s := range p.surv[lo:hi] {
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

// freeze writes the survivors of the working graph, numbered by p, into a
// new frozen graph, with their δ and TL unless every survivor has δ = ⊥ and
// an empty TL. It measures them first, so every column is allocated once.
func (b *builder) freeze(p *pass) *Graph {
	w, idx := &b.g, p.idx
	d := w.Duration()
	s := shape{levels: d}
	for t := 0; t < d; t++ {
		next := idx[w.levelOff[t+1]:]
		for n := w.levelOff[t]; n < w.levelOff[t+1]; n++ {
			if idx[n] < 0 {
				continue
			}
			s.nodes++
			for _, to := range w.to[w.arcOff[n]:w.arcOff[n+1]] {
				if next[to] >= 0 {
					s.arcs++
				}
			}
			s.tls += int(b.tls[n].n)
			s.ident = s.ident || w.stay[n] != StayUntracked || b.tls[n].n > 0
		}
		if t == 0 {
			s.sources = s.nodes
		}
	}
	g := newGraph(s)
	m, a, e := int32(0), int32(0), int32(0)
	for t := 0; t < d; t++ {
		next := idx[w.levelOff[t+1]:]
		for n := w.levelOff[t]; n < w.levelOff[t+1]; n++ {
			if idx[n] < 0 {
				continue
			}
			g.loc[m] = w.loc[n]
			if t == 0 {
				g.src[m] = p.src[n]
			}
			for k := w.arcOff[n]; k < w.arcOff[n+1]; k++ {
				if to := next[w.to[k]]; to >= 0 {
					g.to[a], g.p[a] = to, p.pe[k]
					a++
				}
			}
			if s.ident {
				g.stay[m] = w.stay[n]
				e += int32(copy(g.tl[e:], b.tl.entries(b.tls[n])))
				g.tlOff[m+1] = e
			}
			m++
			g.arcOff[m] = a
		}
		g.levelOff[t+1] = m
	}
	return g
}

// builder holds the constraint set plus the allocation state of the forward
// kernel (forward.go): the compiled constraint view, whether the dominance
// rule drops TL entries (set only where the graph leaves as a quotient), the
// TL interner, a scratch slice for assembling successor TLs, and the
// working graph.
//
// The working graph g is a location node (τ, l, δ, TL) of §4.1 per node of
// a Graph's columns, grown one level per step; a node's timestamp τ is its
// level. Two nodes of a level never share (l, δ, TL): the forward phase
// never materializes duplicates. p holds the a-priori p_E, src the a-priori
// p_N and stay each node's δ; node n's TL is tls[n], a span of the
// interner's column. The newest level has no arcs until the next expand.
// Once expand gave a level its arcs it is only read: the backward phase
// writes into a pass. The working graph lives only while Build or
// BuildState works on it: what leaves the package is a frozen Graph.
type builder struct {
	cs       *constraints.Compiled
	dominate bool
	tl       *tlInterner
	scratch  []TLEntry

	g   Graph
	tls []tlSpan
}

// rewind empties the working graph for the next build and resets the
// interner. Nothing may use a column of the builder afterwards.
func (b *builder) rewind() {
	g := &b.g
	g.levelOff, g.loc, g.stay, g.arcOff = trim(g.levelOff), trim(g.loc), trim(g.stay), trim(g.arcOff)
	g.to, g.p, g.src, b.tls = trim(g.to), trim(g.p), trim(g.src), trim(b.tls)
	b.tl.reset()
	b.cs, b.dominate = nil, false
}

// addNode appends a node to the newest level of the working graph. tl must
// be a canonical interned span.
func (b *builder) addNode(loc, stay int32, tl tlSpan) {
	b.g.loc = append(b.g.loc, loc)
	b.g.stay = append(b.g.stay, stay)
	b.tls = append(b.tls, tl)
}

// closeLevel ends the newest level at the last node added, each of its
// nodes with no out-arcs yet.
func (b *builder) closeLevel() {
	g := &b.g
	for len(g.arcOff) <= len(g.loc) {
		g.arcOff = append(g.arcOff, int32(len(g.to)))
	}
	g.levelOff = append(g.levelOff, int32(len(g.loc)))
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
// allocates nothing. n is a node of the working graph at timestamp t.
func (b *builder) successorKey(t int, n int32, loc int) (nodeKey, pruneReason) {
	t2, from, tl := t+1, int(b.g.loc[n]), b.tl.entries(b.tls[n])
	// Condition 2: direct reachability.
	if b.cs.Unreachable(from, loc) {
		return nodeKey{}, pruneDU
	}
	if loc == from {
		// Condition 3: staying increments a pending stay counter.
		stay := int(b.g.stay[n])
		if stay != StayUntracked {
			stay++
			if delta, _ := b.cs.Latency(loc); stay >= delta {
				stay = StayUntracked // constraint satisfied: normalize to ⊥
			}
		}
		id := b.internTL(tl, t2, loc, -1)
		return nodeKey{loc: int32(loc), stay: int32(stay), tl: id}, pruneNone
	}
	// Condition 4: leaving is allowed only once any latency constraint on
	// the current location is satisfied (pending counter normalized away).
	if b.g.stay[n] != StayUntracked {
		return nodeKey{}, pruneLT
	}
	// Condition 5 (extended to cover the direct move, see DESIGN.md §3):
	// no TT constraint into loc may still bind, neither from a recently
	// left location in TL nor from the location being left right now.
	if nu, ok := b.cs.TT(from, loc); ok && t2-t < nu {
		return nodeKey{}, pruneTT
	}
	for _, e := range tl {
		if nu, ok := b.cs.TT(e.Loc, loc); ok && t2-e.Time < nu {
			return nodeKey{}, pruneTT
		}
	}
	// Condition 6: extend TL with the location being left, drop entries
	// no longer live and any entry for the location being entered.
	id := b.internTL(tl, t2, loc, from)
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
