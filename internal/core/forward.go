package core

import (
	"sync"

	"repro/internal/constraints"
)

// tlInternCap bounds the TL interner of a forward pass. TL entries carry
// absolute timestamps, so on an unbounded stream the interner would grow
// without limit; once it exceeds this many chain links its IDs are forgotten
// (an O(1) stamp bump of its index) and interning starts over. That is safe
// because interned IDs are only compared within a single expand step, and
// nodes hold the canonical slices themselves, whose memory the rebuild
// leaves alone: it is reused only once the kernel goes back to the pool.
const tlInternCap = 1 << 16

// kernel is Algorithm 1's forward phase (lines 1-14), the one implementation
// behind Build and BuildState. sources builds the τ=0 level, expand resolves
// the successors of one level, and link materializes the edges the last
// expand resolved. BuildState.observe runs expand+link per level, for Build
// and for a stream session alike.
//
// Successor identity is the nodeKey (with the TL slice interned), and a
// level is deduplicated in a stamped keyTable: moving to the next level
// bumps its stamp instead of clearing it, so deduplicating costs no
// per-candidate allocation and nothing per level beyond the successors
// themselves, and all scratch state is reused across levels.
//
// A kernel is also everything a build allocates and throws away: the node,
// edge and level arenas, the TL interner, the dedup table, the per-level
// scratch, the forward mass, the explain steps and the backward phase's
// pass. Every build takes one from kernels (getKernel) and gives it back
// (put) when its BuildState is released — Build when it returns, a stream
// session when it ends — so the next build reuses all of it.
type kernel struct {
	b builder

	// internCap bounds the TL interner (tlInternCap by default); tests
	// lower it to exercise the rebuild path cheaply.
	internCap int
	rebuilds  int

	dedup  keyTable  // position of each successor of the level being expanded
	next   []*node   // successors of the level being expanded, before their exact copy
	succs  []int32   // successor position per (node, candidate) pair, -1 when pruned
	outDeg []int32   // out-degree per node of the expanded level
	mass   []float64 // unnormalized forward mass per successor
	alphas []float64 // normalized forward mass of the newest level

	prunes [numPruneReasons]int64 // cumulative, by constraint family
	step   ExplainStep            // tallies of the last sources/expand call
	steps  []ExplainStep          // step of every level so far

	// pass holds the backward phase's columns, kept across a BuildState's
	// Smooths.
	pass
}

// keepNodes is what a kernel keeps when it goes back to kernels, as
// slabKeepChunks bounds its arenas: scratch slices up to keepNodes entries
// and keyTables (its dedup table and interner index) up to keepNodes slots.
// A kept table costs a later build nothing to reuse, since a stamp bump
// empties it, but its memory stays pinned in the pool.
const keepNodes = 1 << 14

var kernels sync.Pool // of *kernel

// getKernel returns a kernel from kernels, ready for a forward pass under ic.
func getKernel(ic *constraints.Set) *kernel {
	k, ok := kernels.Get().(*kernel)
	if !ok {
		k = &kernel{b: builder{tl: newTLInterner()}}
	}
	if ic == nil {
		ic = constraints.NewSet()
	}
	k.b.cs = ic.Compile()
	k.internCap = tlInternCap
	return k
}

// put rewinds k and gives it back to kernels. Nothing may use a node, edge,
// level, TL slice or pass column of k afterwards.
func (k *kernel) put() {
	k.b.rewind()
	k.rebuilds, k.prunes, k.step = 0, [numPruneReasons]int64{}, ExplainStep{}
	k.dedup.trim()
	clear(k.next[:cap(k.next)])
	k.next = trim(k.next[:0])
	k.succs, k.outDeg, k.mass, k.alphas = trim(k.succs), trim(k.outDeg), trim(k.mass), trim(k.alphas)
	k.steps = trim(k.steps)
	k.pass.rewind()
	kernels.Put(k)
}

// trim returns s emptied, or nil when its capacity is past keepNodes.
func trim[T any](s []T) []T {
	if cap(s) > keepNodes {
		return nil
	}
	return s[:0]
}

// sources returns the τ=0 level (lines 1-4): one node per candidate, with
// p_N, and its unnormalized forward mass in k.mass, set from the a-priori
// probability.
func (k *kernel) sources(cands []Candidate) []*node {
	level := k.b.levels.carve(len(cands))
	k.mass = k.mass[:0]
	for i, c := range cands {
		level[i] = k.b.newNode(int32(c.Loc), k.b.initialStay(c.Loc), nil)
		level[i].prob = c.P
		k.mass = append(k.mass, c.P)
	}
	k.step = ExplainStep{Candidates: len(cands), NodesBuilt: len(level)}
	return level
}

// expand runs the first pass of one forward step (lines 5-14): it resolves
// every (node, candidate) pair of cur to the successor Definition 3 permits
// at timestamp t, deduplicates successors by identity and returns them in
// first-seen order, in a slice of exactly their number: a level outlives the
// step in a BuildState's raw graph. Prunes are attributed per constraint
// family and out-degrees counted for link. The successors' unnormalized
// forward mass is accumulated from k.alphas (the forward mass of cur) into
// k.mass — frontier order outer, candidate order inner, the summation order
// behind BuildState's filtered distribution.
func (k *kernel) expand(t int, cur []*node, cands []Candidate) []*node {
	if k.b.tl.size() > k.internCap {
		k.b.tl.rebuild()
		k.rebuilds++
	}
	k.dedup.reset()
	k.succs = resize(k.succs, len(cur)*len(cands))
	k.outDeg = resize(k.outDeg, len(cur))
	next, mass := k.next[:0], k.mass[:0]
	accepted, pi := 0, 0
	for i, n := range cur {
		k.outDeg[i] = 0
		alpha := k.alphas[i]
		for _, c := range cands {
			key, why := k.b.successorKey(t-1, n, c.Loc)
			k.prunes[why]++
			if why != pruneNone {
				k.succs[pi] = -1
				pi++
				continue
			}
			j, added := k.dedup.id(key.packed())
			if added {
				next = append(next, k.b.newNode(key.loc, key.stay, k.b.tl.seq(key.tl)))
				mass = append(mass, 0)
			}
			k.succs[pi] = j
			pi++
			accepted++
			k.outDeg[i]++
			mass[j] += alpha * c.P
		}
	}
	k.step = ExplainStep{
		Candidates: len(cands),
		Considered: len(cur) * len(cands),
		Accepted:   accepted,
		NodesBuilt: len(next),
	}
	k.next, k.mass = next, mass
	level := k.b.levels.carve(len(next))
	copy(level, next)
	return level
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
