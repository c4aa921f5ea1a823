package core

import "sort"

// TopK returns the up-to-k most probable valid trajectories and their
// conditioned probabilities, in descending probability order. TopK(1) is
// MostProbable. It generalizes Viterbi decoding with per-node k-best lists,
// so its cost is O(k·|E|·log k) regardless of how many trajectories the
// graph encodes. The k-best lists are addressed by the nodes' dense
// per-level indices, kept sorted by a bounded insertion (the lists hold at
// most k entries), and hypotheses that cannot enter a full list are
// rejected before anything is allocated.
func (g *Graph) TopK(k int) ([][]int, []float64) {
	if k <= 0 || g.Duration() == 0 {
		return nil, nil
	}
	type hyp struct {
		p    float64
		prev *hyp
		node int // index within the hypothesis' level
	}
	// Hypotheses come from an arena: blocks are never reallocated, so the
	// prev pointers stay stable.
	var arena []hyp
	newHyp := func(p float64, prev *hyp, node int) *hyp {
		if len(arena) == cap(arena) {
			arena = make([]hyp, 0, 1024)
		}
		arena = arena[:len(arena)+1]
		h := &arena[len(arena)-1]
		*h = hyp{p: p, prev: prev, node: node}
		return h
	}
	best := make([][][]*hyp, g.Duration())
	for t := range best {
		best[t] = make([][]*hyp, g.Level(t).Width())
	}
	push := func(t, i int, p float64, prev *hyp) {
		list := best[t][i]
		if len(list) == k {
			if p <= list[k-1].p {
				return
			}
			list[k-1] = newHyp(p, prev, i)
		} else {
			list = append(list, newHyp(p, prev, i))
		}
		for j := len(list) - 1; j > 0 && list[j].p > list[j-1].p; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
		best[t][i] = list
	}
	for i := range best[0] {
		push(0, i, g.Level(0).SourceProb(i), nil)
	}
	for t := 0; t+1 < g.Duration(); t++ {
		for i, list := range best[t] {
			arcs := g.Level(t).Out(i)
			for _, h := range list {
				for a := 0; a < arcs.Len(); a++ {
					to, p := arcs.At(a)
					push(t+1, to, h.p*p, h)
				}
			}
		}
	}
	var finals []*hyp
	for _, list := range best[len(best)-1] {
		finals = append(finals, list...)
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i].p > finals[j].p })
	if len(finals) > k {
		finals = finals[:k]
	}
	trajectories := make([][]int, len(finals))
	probs := make([]float64, len(finals))
	for i, h := range finals {
		locs := make([]int, g.Duration())
		for cur, t := h, len(best)-1; cur != nil; cur, t = cur.prev, t-1 {
			locs[t] = g.Level(t).Loc(cur.node)
		}
		trajectories[i] = locs
		probs[i] = h.p
	}
	return trajectories, probs
}
