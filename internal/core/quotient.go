package core

import (
	"math"
	"slices"
	"sync"
)

// qarc is one out-arc in a node's quotient key: the class of its target in
// the next level and the bits of its conditioned probability p_E.
type qarc struct {
	to int32
	p  uint64
}

// Quotient returns the quotient of g: the graph that keeps one node per
// class of nodes with identical futures. Two nodes of one level are
// equivalent when they have the same location and the same out-arcs, an
// arc being its target's class and the bits of its p_E; at level 0 the key
// also holds the bits of p_N. Classes are formed by one backward sweep from
// the last level, so equivalence of the targets is settled before the arcs
// into them are compared.
//
// Algorithm 1 keys a node on (τ, l, δ, TL), and many nodes differ only in
// TL entries that never prune a later move; the quotient merges them. A
// node of a built graph has at most one successor per location, and the
// merge keeps that true, so every valid trajectory keeps exactly one path,
// and its probability is the same product of the same floats in the same
// order: bit-identical. The pass never adds or multiplies a probability.
// Answers that sum over paths (stay, marginals, patterns) re-associate
// their sums and agree with g's within rounding.
//
// The result is canonical: classes are numbered in the order their first
// member appears in the level, and each class keeps its first member's arc
// order. It has no δ and no TL, so it encodes in the same format with those
// fields omitted. g is not modified, and the result shares no memory with
// it. The quotient of a quotient is itself.
func (g *Graph) Quotient() *Graph {
	if g.Duration() == 0 {
		return &Graph{}
	}
	p, ok := partitions.Get().(*partition)
	if !ok {
		p = new(partition)
	}
	p.sweep(g)
	q := p.assemble()
	clear(p.reps) // no pooled scratch may keep g alive
	partitions.Put(p)
	return q
}

// partition is the outcome of Quotient's backward sweep. Classes are
// numbered per level in first-occurrence order; the per-class slices hold
// them level by level from the last, and first[t] is the position of level
// t's class 0 in them. The rest is the sweep's per-level scratch. Both are
// reused through partitions by the next Quotient.
type partition struct {
	first  []int
	width  []int   // classes per level
	reps   []*node // each class's first member
	arcOff []int32 // each class's arcs are arcs[arcOff[k]:arcOff[k+1]]
	arcs   []qarc  // the first member's out-arcs, in its out order
	inDeg  []int32 // arcs into each class from the classes of the level before

	// The class of every node of the level and of the level after; an
	// open-addressing table from key hash to class, whose slots count as
	// empty unless stamped with the current level; a node's sorted arcs;
	// and the sorted arcs of every class's key.
	cls, nextCls []int32
	table        []classSlot
	key, keys    []qarc
	keyOff       []int32
}

var partitions sync.Pool // of *partition

// sweep partitions g: level by level from the last, it keys every node on
// its location, its out-arcs sorted by target class and, at level 0, its
// source probability, and gives equal keys one class.
func (p *partition) sweep(g *Graph) {
	d := g.Duration()
	nodes, edges, widest := 0, 0, 0
	for _, level := range g.byTime {
		nodes += len(level)
		widest = max(widest, len(level))
		for _, n := range level {
			edges += len(n.out)
		}
	}
	p.first = resize(p.first, d)
	p.width = resize(p.width, d)
	p.reps = slices.Grow(p.reps[:0], nodes)
	p.arcOff = append(slices.Grow(p.arcOff[:0], nodes+1), 0)
	p.arcs = slices.Grow(p.arcs[:0], edges)
	p.inDeg = slices.Grow(p.inDeg[:0], nodes)
	p.cls, p.nextCls = slices.Grow(p.cls[:0], widest), slices.Grow(p.nextCls[:0], widest)
	size := 4
	for size < 2*widest {
		size <<= 1
	}
	// Stamps are levels+1, so a table from an earlier sweep is cleared.
	p.table = resize(p.table, size)
	clear(p.table)
	mask := uint64(size - 1)
	for t := d - 1; t >= 0; t-- {
		stamp, level := int32(t+1), g.byTime[t]
		p.first[t] = len(p.reps)
		p.cls, p.nextCls = p.nextCls[:0], p.cls
		p.keys, p.keyOff = p.keys[:0], append(p.keyOff[:0], 0)
		for _, n := range level {
			// The node's arcs go on the end of p.arcs, and stay there only
			// when it opens a new class.
			start := len(p.arcs)
			for _, e := range n.out {
				p.arcs = append(p.arcs, qarc{to: p.nextCls[e.To.idx], p: math.Float64bits(e.P)})
			}
			out := p.arcs[start:]
			key := append(p.key[:0], out...)
			for i := 1; i < len(key); i++ {
				for j := i; j > 0 && key[j].to < key[j-1].to; j-- {
					key[j], key[j-1] = key[j-1], key[j]
				}
			}
			p.key = key
			h := mixKey(0, uint64(n.Loc))
			for _, a := range key {
				h = mixKey(mixKey(h, uint64(a.to)), a.p)
			}
			var src uint64
			if t == 0 {
				src = math.Float64bits(n.prob)
				h = mixKey(h, src)
			}
			slot := h & mask
			c := int32(-1)
			for ; p.table[slot].stamp == stamp; slot = (slot + 1) & mask {
				if k := p.table[slot].class; p.table[slot].hash == h {
					r := p.reps[p.first[t]+int(k)]
					if r.Loc == n.Loc && (t != 0 || math.Float64bits(r.prob) == src) &&
						slices.Equal(p.keys[p.keyOff[k]:p.keyOff[k+1]], key) {
						c = k
						break
					}
				}
			}
			if c >= 0 {
				p.arcs = p.arcs[:start]
			} else {
				c = int32(len(p.reps) - p.first[t])
				p.reps = append(p.reps, n)
				p.arcOff = append(p.arcOff, int32(len(p.arcs)))
				p.inDeg = append(p.inDeg, 0)
				for _, a := range out {
					p.inDeg[p.first[t+1]+int(a.to)]++
				}
				p.keys = append(p.keys, key...)
				p.keyOff = append(p.keyOff, int32(len(p.keys)))
				p.table[slot] = classSlot{hash: h, class: c, stamp: stamp}
			}
			p.cls = append(p.cls, c)
		}
		p.width[t] = len(p.reps) - p.first[t]
	}
}

// assemble builds the quotient graph: one node per class, copied from its
// first member, with that member's arcs redirected to the target classes.
// Nodes, edges, level lists and adjacency each come from one exactly sized
// slab, and g's edges are not read again.
func (p *partition) assemble() *Graph {
	d := len(p.width)
	nodes := make([]node, len(p.reps))
	slots := make([]*node, len(p.reps))
	edges := make([]edge, len(p.arcs))
	ptrs := make([]*edge, 2*len(p.arcs))
	q := &Graph{byTime: make([][]*node, d)}
	base := 0
	for t, w := range p.width {
		level := slots[base : base+w : base+w]
		for c := range level {
			k, n := p.first[t]+c, &nodes[base+c]
			rep, out, in := p.reps[k], int(p.arcOff[k+1]-p.arcOff[k]), p.inDeg[k]
			n.Time, n.Loc, n.idx = t, rep.Loc, int32(c)
			if t == 0 {
				n.prob = rep.prob
			}
			n.out, ptrs = ptrs[:0:out], ptrs[out:]
			n.in, ptrs = ptrs[:0:in], ptrs[in:]
			level[c] = n
		}
		q.byTime[t] = level
		base += w
	}
	e := 0
	for t := 0; t+1 < d; t++ {
		next := q.byTime[t+1]
		for c, n := range q.byTime[t] {
			k := p.first[t] + c
			for _, a := range p.arcs[p.arcOff[k]:p.arcOff[k+1]] {
				qe := &edges[e]
				e++
				*qe = edge{From: n, To: next[a.to], P: math.Float64frombits(a.p)}
				n.out = append(n.out, qe)
				qe.To.in = append(qe.To.in, qe)
			}
		}
	}
	return q
}

// classSlot is one slot of Quotient's class table.
type classSlot struct {
	hash  uint64
	class int32
	stamp int32 // level+1 of the level that filled the slot; 0 when never filled
}

// mixKey folds v into the key hash h. Equal keys hash equally, and Quotient
// compares every hit against the class representative, so the hash only has
// to spread keys over the table.
func mixKey(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}
