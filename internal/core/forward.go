package core

import (
	"sync"
	"unsafe"

	"repro/internal/constraints"
)

// tlInternCap bounds the TL interner of a forward pass. TL entries carry
// absolute timestamps, so on an unbounded stream the interner would grow
// without limit; once it exceeds this many chain links its IDs are forgotten
// (an O(1) stamp bump of its index) and interning starts over. That is safe
// because interned IDs are only compared within a single expand step, and
// nodes hold spans of the interner's TL column, which the rebuild leaves
// alone: it is reused only once the kernel goes back to the pool.
const tlInternCap = 1 << 16

// kernel is Algorithm 1's forward phase (lines 1-14), the one implementation
// behind Build and BuildState. sources builds the τ=0 level and expand the
// level after the newest, appending both to the builder's working graph.
// BuildState.observe runs one of them per level, for Build and for a stream
// session alike.
//
// Successor identity is the nodeKey (with the TL slice interned), and a
// level is deduplicated in a stamped keyTable: moving to the next level
// bumps its stamp instead of clearing it, so deduplicating costs no
// per-candidate allocation and nothing per level beyond the successors
// themselves, and all scratch state is reused across levels.
//
// A kernel is also everything a build allocates and throws away: the
// working graph's columns, the TL interner, the dedup table, the forward
// mass, the explain steps and the backward phase's pass. Every build takes
// one from kernels (getKernel) and gives it back (put) when its BuildState
// is released — Build when it returns, a stream session when it ends — so
// the next build reuses all of it.
type kernel struct {
	b builder

	// internCap bounds the TL interner (tlInternCap by default); tests
	// lower it to exercise the rebuild path cheaply.
	internCap int
	rebuilds  int

	dedup  keyTable  // position of each successor of the level being expanded
	mass   []float64 // unnormalized forward mass per successor
	alphas []float64 // normalized forward mass of the newest level

	prunes [numPruneReasons]int64 // cumulative, by constraint family
	step   ExplainStep            // tallies of the last sources/expand call
	steps  []ExplainStep          // step of every level so far

	// pass holds the backward phase's columns, kept across a BuildState's
	// Smooths.
	pass
}

// keepBytes bounds each column and scratch slice a kernel keeps when it
// goes back to kernels (1 MB, what 64 arena chunks of 16 KB held): a kernel
// that served a bigger build drops the rest, so one long stream session
// does not pin its memory in the pool for every later build, and a warm
// build or session within it reallocates nothing. A column starts from
// firstBytes, as an arena's first chunk did, so a fresh kernel grows each
// in a few steps.
const (
	keepBytes  = 1 << 20
	firstBytes = 512
)

// keepNodes bounds the slots of the keyTables a kernel keeps (its dedup
// table and interner index). A kept table costs a later build nothing to
// reuse, since a stamp bump empties it, but its memory stays pinned in the
// pool.
const keepNodes = 1 << 14

var kernels sync.Pool // of *kernel

// getKernel returns a kernel from kernels, ready for a forward pass under ic.
func getKernel(ic *constraints.Set) *kernel {
	k, ok := kernels.Get().(*kernel)
	if !ok {
		k = &kernel{b: builder{tl: newTLInterner()}}
		k.rewind()
	}
	if ic == nil {
		ic = constraints.NewSet()
	}
	k.b.cs = ic.Compile()
	k.b.g.levelOff = append(k.b.g.levelOff, 0)
	k.b.g.arcOff = append(k.b.g.arcOff, 0)
	k.internCap = tlInternCap
	return k
}

// put rewinds k and gives it back to kernels. Nothing may use a column of k
// afterwards.
func (k *kernel) put() {
	k.rewind()
	kernels.Put(k)
}

// rewind empties k for the next build.
func (k *kernel) rewind() {
	k.b.rewind()
	k.rebuilds, k.prunes, k.step = 0, [numPruneReasons]int64{}, ExplainStep{}
	k.dedup.trim()
	k.mass, k.alphas, k.steps = trim(k.mass), trim(k.alphas), trim(k.steps)
	k.pass.rewind()
}

// trim returns s emptied for the next build: with its own capacity when
// that holds from firstBytes to keepBytes, else with a new one of
// firstBytes.
func trim[T any](s []T) []T {
	var zero T
	size := unsafe.Sizeof(zero)
	if c := uintptr(cap(s)) * size; c < firstBytes || c > keepBytes {
		return make([]T, 0, firstBytes/size)
	}
	return s[:0]
}

// sources appends the τ=0 level (lines 1-4): one node per candidate, with
// p_N, and sets its unnormalized forward mass in k.mass from the a-priori
// probability.
func (k *kernel) sources(cands []Candidate) {
	k.mass = k.mass[:0]
	for _, c := range cands {
		k.b.addNode(int32(c.Loc), k.b.initialStay(c.Loc), tlSpan{})
		k.b.g.src = append(k.b.g.src, c.P)
		k.mass = append(k.mass, c.P)
	}
	k.b.closeLevel()
	k.step = ExplainStep{Candidates: len(cands), NodesBuilt: len(cands)}
}

// expand runs one forward step (lines 5-14) from level t−1, the newest: it
// resolves every (node, candidate) pair to the successor Definition 3
// permits at timestamp t, appends the successors to the working graph,
// deduplicated by identity in first-seen order, and gives every node of
// level t−1 its a-priori out-arcs, in candidate order. It returns how many
// successors level t has; with none the graph is left without it. Prunes
// are attributed per constraint family. The successors' unnormalized
// forward mass is accumulated from k.alphas (the forward mass of level
// t−1) into k.mass — frontier order outer, candidate order inner, the
// summation order behind BuildState's filtered distribution.
func (k *kernel) expand(t int, cands []Candidate) int {
	if k.b.tl.size() > k.internCap {
		k.b.tl.rebuild()
		k.rebuilds++
	}
	k.dedup.reset()
	g := &k.b.g
	lo, hi := g.levelOff[t-1], g.levelOff[t]
	mass := k.mass[:0]
	accepted := 0
	for n := lo; n < hi; n++ {
		alpha := k.alphas[n-lo]
		for _, c := range cands {
			key, why := k.b.successorKey(t-1, n, c.Loc)
			k.prunes[why]++
			if why != pruneNone {
				continue
			}
			j, added := k.dedup.id(key.packed())
			if added {
				k.b.addNode(key.loc, key.stay, k.b.tl.span(key.tl))
				mass = append(mass, 0)
			}
			g.to = append(g.to, j)
			g.p = append(g.p, c.P)
			accepted++
			mass[j] += alpha * c.P
		}
		g.arcOff[n+1] = int32(len(g.to))
	}
	k.step = ExplainStep{
		Candidates: len(cands),
		Considered: int(hi-lo) * len(cands),
		Accepted:   accepted,
		NodesBuilt: len(mass),
	}
	k.mass = mass
	if len(mass) > 0 {
		k.b.closeLevel()
	}
	return len(mass)
}
