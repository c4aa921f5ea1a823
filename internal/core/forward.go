package core

import "repro/internal/constraints"

// tlInternCap bounds the TL interner of a forward pass. TL entries carry
// absolute timestamps, so on an unbounded stream the interner would grow
// without limit; once it exceeds this many chain links it is discarded and
// rebuilt. That is safe because interned IDs are only compared within a
// single expand step, and nodes hold the canonical slices themselves, which
// outlive the interner that created them.
const tlInternCap = 1 << 16

// kernel is Algorithm 1's forward phase (lines 1-14), the one implementation
// behind Build and BuildState. sources builds the τ=0 level, expand resolves
// the successors of one level, and link materializes the edges the last
// expand resolved. Build and BuildState run expand+link per level.
//
// Successor identity is the comparable nodeKey (with the TL slice interned),
// so deduplicating a level costs no per-candidate allocation, and all
// scratch state is reused across levels.
type kernel struct {
	b builder

	// internCap bounds the TL interner (tlInternCap by default); tests
	// lower it to exercise the rebuild path cheaply.
	internCap int
	rebuilds  int

	dedup  map[nodeKey]int32 // position of each successor of the level being expanded
	succs  []int32           // successor position per (node, candidate) pair, -1 when pruned
	outDeg []int32           // out-degree per node of the expanded level
	mass   []float64         // unnormalized forward mass per successor

	prunes [numPruneReasons]int64 // cumulative, by constraint family
	step   ExplainStep            // tallies of the last sources/expand call
}

func newKernel(ic *constraints.Set) kernel {
	if ic == nil {
		ic = constraints.NewSet()
	}
	return kernel{b: newBuilder(ic), internCap: tlInternCap, dedup: make(map[nodeKey]int32)}
}

// sources appends the τ=0 nodes to level (lines 1-4): one per candidate,
// with p_N set from the a-priori probability.
func (k *kernel) sources(cands []Candidate, level []*node) []*node {
	for _, c := range cands {
		n := k.b.newNode(int32(c.Loc), k.b.initialStay(c.Loc), nil)
		n.prob = c.P
		level = append(level, n)
	}
	k.step = ExplainStep{Candidates: len(cands), NodesBuilt: len(level)}
	return level
}

// expand runs the first pass of one forward step (lines 5-14): it resolves
// every (node, candidate) pair of cur to the successor Definition 3 permits
// at timestamp t, deduplicates successors by identity, appends them to next
// in first-seen order and returns it. Prunes are attributed per constraint
// family and out-degrees counted for link. When alphas (the forward mass of
// cur) is non-nil, the successors' unnormalized forward mass is accumulated
// into k.mass — frontier order outer, candidate order inner, the summation
// order behind BuildState's filtered distribution.
func (k *kernel) expand(t int, cur []*node, cands []Candidate, next []*node, alphas []float64) []*node {
	if k.b.tl.size() > k.internCap {
		k.b.tl = newTLInterner()
		k.rebuilds++
	}
	clear(k.dedup)
	k.succs = resize(k.succs, len(cur)*len(cands))
	k.outDeg = resize(k.outDeg, len(cur))
	k.mass = k.mass[:0]
	accepted, pi := 0, 0
	for i, n := range cur {
		k.outDeg[i] = 0
		for _, c := range cands {
			key, why := k.b.successorKey(t-1, n, c.Loc)
			k.prunes[why]++
			if why != pruneNone {
				k.succs[pi] = -1
				pi++
				continue
			}
			j, seen := k.dedup[key]
			if !seen {
				j = int32(len(next))
				k.dedup[key] = j
				next = append(next, k.b.newNode(key.loc, key.stay, k.b.tl.seq(key.tl)))
				if alphas != nil {
					k.mass = append(k.mass, 0)
				}
			}
			k.succs[pi] = j
			pi++
			accepted++
			k.outDeg[i]++
			if alphas != nil {
				k.mass[j] += alphas[i] * c.P
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
// out-arc lists for cur (the level of the last expand) out of the edge arena
// and fills them with the a-priori arcs, so they never pay append-growth
// reallocations. After link, cur is only read.
func (k *kernel) link(cur []*node, cands []Candidate) {
	pi := 0
	for i, n := range cur {
		n.out = k.b.carve(int(k.outDeg[i]))
		for _, c := range cands {
			if j := k.succs[pi]; j >= 0 {
				n.out = append(n.out, edge{To: j, P: c.P})
			}
			pi++
		}
	}
}
