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
	return quotientOf(g, nil)
}

// quotientOf returns the quotient of g without the nodes idx marks
// negative, when idx is set: the survivors of a working graph whose view g
// carries the conditioned p_E and p_N. An arc into a removed node is
// dropped with it.
func quotientOf(g *Graph, idx []int32) *Graph {
	p := getPartition()
	p.sweep(g, idx)
	q := p.assemble(g)
	partitions.Put(p)
	return q
}

// partition is the outcome of Quotient's backward sweep. Classes are
// numbered per level in first-occurrence order; the per-class slices hold
// them level by level from the last, and first[t] is the position of level
// t's class 0 in them. The rest is the sweep's per-level scratch. All of it
// is reused through partitions by the next Quotient, and none of it keeps a
// swept or returned graph alive.
type partition struct {
	first  []int
	width  []int   // classes per level
	reps   []int32 // each class's first member, as a node number of the swept graph
	arcOff []int32 // each class's arcs are arcs[arcOff[k]:arcOff[k+1]]
	arcs   []qarc  // the first member's out-arcs, in its out order

	// The class of every node of the level and of the level after (-1 for
	// a removed node); an open-addressing table from key hash to class,
	// whose slots count as empty unless stamped with the current level; a
	// node's sorted arcs; and the sorted arcs of every class's key.
	cls, nextCls []int32
	table        []classSlot
	key, keys    []qarc
	keyOff       []int32
}

var partitions sync.Pool // of *partition

func getPartition() *partition {
	if p, ok := partitions.Get().(*partition); ok {
		return p
	}
	return new(partition)
}

// sweep partitions g: level by level from the last, it keys every node on
// its location, its out-arcs sorted by target class and, at level 0, its
// source probability, and gives equal keys one class. With idx set, the
// nodes it marks negative and the arcs into them are left out.
func (p *partition) sweep(g *Graph, idx []int32) {
	d := g.Duration()
	nodes, edges, widest := len(g.loc), len(g.to), 0
	for t := 0; t < d; t++ {
		widest = max(widest, g.Level(t).Width())
	}
	p.first = resize(p.first, d)
	p.width = resize(p.width, d)
	p.reps = slices.Grow(p.reps[:0], nodes)
	p.arcOff = append(slices.Grow(p.arcOff[:0], nodes+1), 0)
	p.arcs = slices.Grow(p.arcs[:0], edges)
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
		stamp, lo, hi := int32(t+1), g.levelOff[t], g.levelOff[t+1]
		p.first[t] = len(p.reps)
		p.cls, p.nextCls = p.nextCls[:0], p.cls
		p.keys, p.keyOff = p.keys[:0], append(p.keyOff[:0], 0)
		for n := lo; n < hi; n++ {
			if idx != nil && idx[n] < 0 {
				p.cls = append(p.cls, -1)
				continue
			}
			// The node's arcs go on the end of p.arcs, and stay there only
			// when it opens a new class.
			start := len(p.arcs)
			for k := g.arcOff[n]; k < g.arcOff[n+1]; k++ {
				if c := p.nextCls[g.to[k]]; c >= 0 {
					p.arcs = append(p.arcs, qarc{to: c, p: math.Float64bits(g.p[k])})
				}
			}
			out := p.arcs[start:]
			key := append(p.key[:0], out...)
			for x := 1; x < len(key); x++ {
				for j := x; j > 0 && key[j].to < key[j-1].to; j-- {
					key[j], key[j-1] = key[j-1], key[j]
				}
			}
			p.key = key
			loc := g.loc[n]
			h := mixKey(0, uint64(loc))
			for _, a := range key {
				h = mixKey(mixKey(h, uint64(a.to)), a.p)
			}
			var src uint64
			if t == 0 {
				src = math.Float64bits(g.src[n])
				h = mixKey(h, src)
			}
			slot := h & mask
			c := int32(-1)
			for ; p.table[slot].stamp == stamp; slot = (slot + 1) & mask {
				if k := p.table[slot].class; p.table[slot].hash == h {
					r := p.reps[p.first[t]+int(k)]
					if g.loc[r] == loc && (t != 0 || math.Float64bits(g.src[r]) == src) &&
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
				p.keys = append(p.keys, key...)
				p.keyOff = append(p.keyOff, int32(len(p.keys)))
				p.table[slot] = classSlot{hash: h, class: c, stamp: stamp}
			}
			p.cls = append(p.cls, c)
		}
		p.width[t] = len(p.reps) - p.first[t]
	}
}

// assemble writes the quotient of g, the graph p swept, into a new frozen
// graph: one node per class, with its first member's location (and source
// probability) and arcs.
func (p *partition) assemble(g *Graph) *Graph {
	d := len(p.width)
	q := newGraph(shape{levels: d, nodes: len(p.reps), sources: p.width[0], arcs: len(p.arcs)})
	n, a := 0, int32(0)
	for t, w := range p.width {
		for c := 0; c < w; c++ {
			k := p.first[t] + c
			rep := p.reps[k]
			q.loc[n] = g.loc[rep]
			if t == 0 {
				q.src[c] = g.src[rep]
			}
			for _, arc := range p.arcs[p.arcOff[k]:p.arcOff[k+1]] {
				q.to[a], q.p[a] = arc.to, math.Float64frombits(arc.p)
				a++
			}
			n++
			q.arcOff[n] = a
		}
		q.levelOff[t+1] = int32(n)
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
