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

	// Quotient makes Build and BuildState.Smooth return the quotient of
	// Algorithm 1's graph (Graph.Quotient) in its place. Build's own graph
	// then never leaves it, so Build looks ahead: its forward phase drops
	// TL entries that no later candidate can make prune (lookahead.go),
	// which merges early some nodes the quotient would merge, and the
	// result encodes byte for byte like Build(…).Quotient(). The explain
	// report describes the graph Build built, which can have fewer nodes
	// than Algorithm 1's. Build also hands that graph's arena blocks to the
	// builds after it instead of leaving them to the garbage collector.
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
	k := getKernel(ic)
	// The graph that leaves Build is frozen, so the kernel goes back to the
	// pool whatever the outcome.
	defer k.put()
	if opts.quotient() {
		// Build's own graph never leaves it, so it may merge nodes that
		// differ only in dead TL entries (lookahead.go).
		k.b.look = newLookahead(k.b.cs, ls)
	}
	if ex != nil {
		ex.CompileNanos = time.Since(phaseStart).Nanoseconds()
		phaseStart = time.Now()
	}
	spCompile.End()
	_, spForward := obs.Start(ctx, "core.forward")

	// Forward phase (lines 1-14): the sources, then expand+link per level.
	levels := make([][]*node, duration)
	levels[0] = k.sources(ls.Steps[0].Candidates)
	if ex != nil {
		ex.Steps[0] = k.step
	}
	for t := 1; t < duration; t++ {
		cur, cands := levels[t-1], ls.Steps[t].Candidates
		next := k.expand(t, cur, cands, nil)
		if ex != nil {
			ex.Steps[t] = k.step
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, t)
		}
		k.link(cur, cands)
		levels[t] = next
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

	// Backward phase (lines 15-31 in closed form; see above), into the
	// columns of a pass: the working graph itself is only read.
	p := &k.pass
	p.columns(levels)
	p.src = resize(p.src, len(levels[0]))
	condemned := condemnTargets(levels[duration-1], opts.endLatency() == constraints.StrictEnd, p.surv[duration-1])
	backwardRemoved := 0
	for t := duration - 2; t >= 0; t-- {
		removed, ok := conditionLevel(levels[t], p.surv[t+1], p.surv[t])
		backwardRemoved += removed
		if !ok {
			return nil, ErrNoValidTrajectory
		}
	}

	spBackward.End()
	if ex != nil {
		ex.BackwardNanos = time.Since(phaseStart).Nanoseconds()
		phaseStart = time.Now()
	}
	_, spRevise := obs.Start(ctx, "core.revise")

	// Condition the source probabilities (lines 30-31).
	total, ok := conditionSources(levels[0], p.surv[0], p.src)
	if !ok {
		spRevise.End()
		return nil, ErrNoValidTrajectory
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
		ex.BackwardRemoved = backwardRemoved
		ex.GhostsRemoved = ghosts
		ex.Normalizer = total
		ex.RecomputedLevels = duration
		ex.ReviseNanos = time.Since(phaseStart).Nanoseconds()
	}
	spRevise.End()
	if opts.quotient() {
		_, sp := obs.Start(ctx, "core.quotient")
		defer sp.End()
		return quotientOf(levels, p), nil
	}
	return freeze(nil, 0, levels, p), nil
}

// pass is what Algorithm 1's backward phase writes about a working graph,
// which it only reads: per level, columns indexed like the level's nodes,
// carved from the pass's own arenas. It belongs to a kernel: Build carves
// it per call, and a BuildState extends it across its Smooths.
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
// number of condemned targets. Shared by Build and BuildState.Smooth so both
// paths run the identical operations in the identical order.
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
// valid trajectory exists. Shared by Build and BuildState.Smooth: running
// the same float operations, in survival and weight, is what makes the
// incremental path bit-identical to the offline one.
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
// retains positive mass. Shared by Build and BuildState.Smooth.
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
func measure(prefix *Graph, reuse int, levels [][]*node, p *pass) shape {
	s := shape{levels: len(levels)}
	if reuse > 0 {
		s.nodes = int(prefix.levelOff[reuse])
		s.arcs = int(prefix.arcOff[s.nodes])
		s.sources = len(prefix.src)
		if len(prefix.tlOff) > 0 {
			s.ident, s.tls = true, int(prefix.tlOff[s.nodes])
		}
	}
	for t := reuse; t < len(levels); t++ {
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
// graph. When reuse > 0, levels 0..reuse-1 are prefix's, copied unchanged,
// and levels[:reuse] are not read: the arcs out of prefix's level reuse-1
// must already index level reuse as p numbers it.
func freeze(prefix *Graph, reuse int, levels [][]*node, p *pass) *Graph {
	g := newGraph(measure(prefix, reuse, levels, p))
	g.fill(prefix, reuse, levels, p)
	return g
}

// fill writes the survivors and arcs of freeze's arguments into g, whose
// columns were carved for their shape; with the δ and TL columns left out,
// it skips node identity. An arc's conditioned probability is p_E(n,m)·S(m)
// / S(n) (lines 17-19), S(n) before its level was rescaled.
func (g *Graph) fill(prefix *Graph, reuse int, levels [][]*node, p *pass) {
	n, a, e := 0, int32(0), int32(0)
	if reuse > 0 {
		n = int(prefix.levelOff[reuse])
		a = prefix.arcOff[n]
		copy(g.levelOff, prefix.levelOff[:reuse+1])
		copy(g.loc, prefix.loc[:n])
		copy(g.arcOff, prefix.arcOff[:n+1])
		copy(g.to, prefix.to[:a])
		copy(g.p, prefix.p[:a])
		copy(g.src, prefix.src)
		if len(prefix.tlOff) > 0 && len(g.tlOff) > 0 {
			e = prefix.tlOff[n]
			copy(g.stay, prefix.stay[:n])
			copy(g.tlOff, prefix.tlOff[:n+1])
			copy(g.tl, prefix.tl[:e])
		}
	}
	ident := len(g.tlOff) > 0
	for t := reuse; t < len(levels); t++ {
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
// kernel (forward.go): the compiled constraint view, the lookahead that
// decides which TL entries live (nil unless Build set one), the TL interner,
// a scratch slice for assembling successor TLs, and the node, edge and level
// arenas. Arena chunks are never reallocated, so node pointers, out-arc
// lists and levels stay valid until the kernel is put back.
type builder struct {
	cs      *constraints.Compiled
	look    *lookahead
	tl      *tlInterner
	scratch []TLEntry

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
	b.cs, b.look = nil, nil
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
		id := b.internTL(n.TL, t2, -1, -1)
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
// interned ID: the entries of tl still live at t2, minus any entry for
// location drop, plus an entry for location left (-1 when the move stays)
// left at t2−1, when that location is a TT source and the entry is live.
// Which entries are live is fixed for the whole build: with a lookahead, an
// entry lives while some later move can still break its TT constraint;
// without, until its longest traveling time has passed.
func (b *builder) internTL(tl []TLEntry, t2, drop, left int) tlID {
	s := b.scratch[:0]
	add := b.cs.HasTTFrom(left)
	if la := b.look; la != nil {
		row := la.row(t2 + 1)
		for _, e := range tl {
			if e.Loc != drop && row[la.col[e.Loc]] < int32(e.Time) {
				s = append(s, e)
			}
		}
		add = add && row[la.col[left]] < int32(t2-1)
	} else {
		for _, e := range tl {
			if e.Loc != drop && t2-e.Time < b.cs.MaxTravelingTime(e.Loc) {
				s = append(s, e)
			}
		}
	}
	if add {
		s = append(s, TLEntry{Time: t2 - 1, Loc: left})
		sortTL(s)
	}
	b.scratch = s
	return b.tl.intern(s)
}
