package core

import (
	"fmt"
	"sort"

	"repro/internal/constraints"
)

// filterInternCap bounds the TL interner of a forward pass. TL entries carry
// absolute timestamps, so on an unbounded stream the interner would grow
// without limit; once it exceeds this many chain links it is discarded and
// rebuilt. That is safe because interned IDs are only compared within a
// single expand step, and nodes hold the canonical slices themselves, which
// outlive the interner that created them.
const filterInternCap = 1 << 16

// kernel is Algorithm 1's forward phase (lines 1-14), the one implementation
// behind Build, BuildState and Filter. sources builds the τ=0 level, expand
// resolves the successors of one level, and link materializes the edges the
// last expand resolved. Build and BuildState run expand+link per level;
// Filter runs expand alone and keeps only the newest level.
//
// Successor identity is the comparable nodeKey (with the TL slice interned),
// so deduplicating a level costs no per-candidate allocation, and all
// scratch state is reused across levels.
type kernel struct {
	b builder

	// internCap bounds the TL interner (filterInternCap by default); tests
	// lower it to exercise the rebuild path cheaply.
	internCap int
	rebuilds  int

	dedup  map[nodeKey]*Node // successors of the level being expanded
	succs  []*Node           // successor per (node, candidate) pair, nil when pruned
	outDeg []int32           // out-degree per node of the expanded level
	inDeg  []int32           // in-degree per successor
	mass   []float64         // unnormalized forward mass per successor

	prunes [numPruneReasons]int64 // cumulative, by constraint family
	step   ExplainStep            // tallies of the last sources/expand call
}

func newKernel(ic *constraints.Set) kernel {
	if ic == nil {
		ic = constraints.NewSet()
	}
	return kernel{b: newBuilder(ic), internCap: filterInternCap, dedup: make(map[nodeKey]*Node)}
}

// sources appends the τ=0 nodes to level (lines 1-4): one per candidate,
// with p_N set from the a-priori probability.
func (k *kernel) sources(cands []Candidate, level []*Node) []*Node {
	for _, c := range cands {
		n := k.b.newNode(0, c.Loc, k.b.initialStay(c.Loc), nil)
		n.prob = c.P
		n.idx = int32(len(level))
		level = append(level, n)
	}
	k.step = ExplainStep{Candidates: len(cands), NodesBuilt: len(level)}
	return level
}

// expand runs the first pass of one forward step (lines 5-14): it resolves
// every (node, candidate) pair of cur to the successor Definition 3 permits
// at timestamp t, deduplicates successors by identity, appends them to next
// in first-seen order and returns it. Prunes are attributed per constraint
// family and degrees counted for link. When alphas (the forward mass of cur)
// is non-nil, the successors' unnormalized forward mass is accumulated into
// k.mass — frontier order outer, candidate order inner, the one summation
// order every streaming path shares.
func (k *kernel) expand(t int, cur []*Node, cands []Candidate, next []*Node, alphas []float64) []*Node {
	if k.b.tl.size() > k.internCap {
		k.b.tl = newTLInterner()
		k.rebuilds++
	}
	clear(k.dedup)
	k.succs = resize(k.succs, len(cur)*len(cands))
	k.outDeg = resize(k.outDeg, len(cur))
	k.inDeg = k.inDeg[:0]
	k.mass = k.mass[:0]
	accepted, pi := 0, 0
	for i, n := range cur {
		k.outDeg[i] = 0
		for _, c := range cands {
			key, why := k.b.successorKey(n, c.Loc)
			k.prunes[why]++
			if why != pruneNone {
				k.succs[pi] = nil
				pi++
				continue
			}
			succ, seen := k.dedup[key]
			if !seen {
				succ = k.b.newNode(t, int(key.loc), int(key.stay), k.b.tl.seq(key.tl))
				succ.idx = int32(len(next))
				k.dedup[key] = succ
				next = append(next, succ)
				k.inDeg = append(k.inDeg, 0)
				if alphas != nil {
					k.mass = append(k.mass, 0)
				}
			}
			k.succs[pi] = succ
			pi++
			accepted++
			k.outDeg[i]++
			k.inDeg[succ.idx]++
			if alphas != nil {
				k.mass[succ.idx] += alphas[i] * c.P
			}
		}
	}
	k.step = ExplainStep{
		Candidates: len(cands),
		Considered: len(cur) * len(cands),
		Accepted:   accepted,
		NodesBuilt: len(next),
	}
	return next
}

// link is the second pass of a forward step: it carves exact-capacity
// adjacency lists for cur and next (the levels of the last expand) out of the
// pointer arena and fills them with the a-priori edges, so the in/out lists
// never pay append-growth reallocations.
func (k *kernel) link(cur, next []*Node, cands []Candidate) {
	for i, n := range cur {
		n.out = k.b.carve(int(k.outDeg[i]))
	}
	for i, m := range next {
		m.in = k.b.carve(int(k.inDeg[i]))
	}
	pi := 0
	for _, n := range cur {
		for _, c := range cands {
			succ := k.succs[pi]
			pi++
			if succ == nil {
				continue
			}
			e := k.b.newEdge(n, succ, c.P)
			n.out = append(n.out, e)
			succ.in = append(succ.in, e)
		}
	}
}

// frontier is the newest level of a streaming forward pass together with its
// normalized forward mass: the state BuildState and Filter share, and the one
// place their frontier queries are answered. After a dead end the level is
// empty and every later advance fails.
type frontier struct {
	kernel
	time   int       // timestamp of level; -1 before the first observation
	level  []*Node   // alive nodes at time
	alphas []float64 // normalized forward mass, aligned with level
	dead   bool
}

func newFrontier(ic *constraints.Set) frontier {
	return frontier{kernel: newKernel(ic), time: -1}
}

// advance validates cands and moves the frontier one timestamp on: the
// sources on the first call, an expand of the current level into next
// afterwards. A positive beam then keeps only the beam most probable nodes,
// and the forward mass is normalized. It returns the previous level (nil on
// the first call) and ErrNoValidTrajectory on a dead end.
func (f *frontier) advance(cands []Candidate, next []*Node, beam int) ([]*Node, error) {
	if f.dead {
		return nil, fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, f.time+1)
	}
	if err := validateCandidates(cands, f.time+1); err != nil {
		return nil, err
	}
	prev := f.level
	if f.time < 0 {
		next = f.sources(cands, next)
		f.mass = f.mass[:0]
		for _, c := range cands {
			f.mass = append(f.mass, c.P)
		}
	} else if next = f.expand(f.time+1, prev, cands, next, f.alphas); len(next) == 0 {
		f.dead = true
		f.level, f.alphas = nil, nil
		return nil, fmt.Errorf("%w (dead end at timestamp %d)", ErrNoValidTrajectory, f.time+1)
	}
	f.time++
	f.level = next
	f.alphas, f.mass = f.mass, f.alphas
	if beam > 0 && len(f.level) > beam {
		sort.Sort(byMass{f.level, f.alphas})
		f.level, f.alphas = f.level[:beam], f.alphas[:beam]
	}
	total := 0.0
	for _, a := range f.alphas {
		total += a
	}
	if total > 0 {
		for i := range f.alphas {
			f.alphas[i] /= total
		}
	}
	return prev, nil
}

// byMass orders a frontier for the beam prune: descending forward mass,
// ties broken by node identity (location, stay, then TL) so entries
// straddling the beam boundary with equal mass truncate deterministically.
type byMass struct {
	level  []*Node
	alphas []float64
}

func (f byMass) Len() int { return len(f.level) }
func (f byMass) Swap(i, j int) {
	f.level[i], f.level[j] = f.level[j], f.level[i]
	f.alphas[i], f.alphas[j] = f.alphas[j], f.alphas[i]
}
func (f byMass) Less(i, j int) bool {
	if f.alphas[i] != f.alphas[j] {
		return f.alphas[i] > f.alphas[j]
	}
	return f.level[i].identityLess(f.level[j])
}

// identityLess orders nodes of one timestamp by their identity fields:
// location, then stay counter, then TL lexicographically. Two distinct nodes
// of a level never compare equal — (Loc, Stay, TL) is exactly the nodeKey
// the forward phase deduplicates on.
func (n *Node) identityLess(m *Node) bool {
	if n.Loc != m.Loc {
		return n.Loc < m.Loc
	}
	if n.Stay != m.Stay {
		return n.Stay < m.Stay
	}
	for i := 0; i < len(n.TL) && i < len(m.TL); i++ {
		if n.TL[i] != m.TL[i] {
			if n.TL[i].Time != m.TL[i].Time {
				return n.TL[i].Time < m.TL[i].Time
			}
			return n.TL[i].Loc < m.TL[i].Loc
		}
	}
	return len(n.TL) < len(m.TL)
}

// Time returns the timestamp of the last observation (-1 before the first).
func (f *frontier) Time() int { return f.time }

// FrontierSize returns the number of alive location nodes at the newest
// timestamp (0 after a dead end).
func (f *frontier) FrontierSize() int { return len(f.level) }

// InternerRebuilds returns how many times the TL interner has been discarded
// and rebuilt to bound memory on a long stream.
func (f *frontier) InternerRebuilds() int { return f.rebuilds }

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
func (f *frontier) Distribution() ([]LocProb, error) {
	if f.time < 0 {
		return nil, fmt.Errorf("core: nothing observed yet")
	}
	byLoc := make(map[int]float64, len(f.level))
	for i, n := range f.level {
		byLoc[n.Loc] += f.alphas[i]
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
func (f *frontier) TopLocations(k int) ([]LocProb, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k >= 1, got %d", k)
	}
	dist, err := f.Distribution()
	if err != nil {
		return nil, err
	}
	return dist[:min(k, len(dist))], nil
}
