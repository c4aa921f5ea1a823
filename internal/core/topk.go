package core

import "sort"

// TopK returns the up-to-k most probable valid trajectories and their
// conditioned probabilities, in descending probability order. It
// generalizes Viterbi decoding with per-node k-best lists, so it makes
// k·|E| pushes, each a bounded insertion into a list of at most k entries,
// regardless of how many trajectories the graph encodes.
//
// The lists are node columns: node n owns the k slots n·k to n·k+k-1, of
// which the first cnt[n] are filled, best first. A slot holds a probability
// and the number of the slot it extends at the previous level (-1 at a
// source; slots are numbered in int32, which only a graph of more than
// 24 GiB of slots would outgrow). A hypothesis enters a list by a bounded
// insertion: a full list rejects one no better than its worst, and the new
// one moves up past every strictly worse entry, so among equals the first
// pushed stays first.
func (g *Graph) TopK(k int) ([][]int, []float64) {
	if k <= 0 || g.Duration() == 0 {
		return nil, nil
	}
	// No node has more paths into it than the product of the level widths
	// up to it, so capping k there keeps a large k on a small graph from
	// allocating slots that stay empty (an empty level leaves one slot per
	// node, never filled).
	paths := 1.0
	for t := range g.Duration() {
		paths *= float64(g.Level(t).Width())
	}
	if paths < float64(k) {
		k = max(int(paths), 1)
	}
	prob := make([]float64, len(g.loc)*k)
	prev := make([]int32, len(g.loc)*k)
	cnt := make([]int32, len(g.loc))
	push := func(n int32, p float64, from int32) {
		lo, c := n*int32(k), cnt[n]
		if int(c) == k {
			if p <= prob[lo+c-1] {
				return
			}
			c--
		} else {
			cnt[n]++
		}
		j := lo + c
		for ; j > lo && p > prob[j-1]; j-- {
			prob[j], prev[j] = prob[j-1], prev[j-1]
		}
		prob[j], prev[j] = p, from
	}
	for i, p := range g.src {
		push(int32(i), p, -1)
	}
	to, pe := g.to, g.p
	for t := 0; t+1 < g.Duration(); t++ {
		next := g.levelOff[t+1]
		for n := g.levelOff[t]; n < next; n++ {
			lo := n * int32(k)
			for s := lo; s < lo+cnt[n]; s++ {
				for a := g.arcOff[n]; a < g.arcOff[n+1]; a++ {
					push(next+to[a], prob[s]*pe[a], s)
				}
			}
		}
	}
	last := g.Duration() - 1
	finals := make([]int32, 0, g.Level(last).Width()*k)
	for n := g.levelOff[last]; n < g.levelOff[last+1]; n++ {
		for s := n * int32(k); s < n*int32(k)+cnt[n]; s++ {
			finals = append(finals, s)
		}
	}
	sort.Slice(finals, func(i, j int) bool { return prob[finals[i]] > prob[finals[j]] })
	if len(finals) > k {
		finals = finals[:k]
	}
	trajectories := make([][]int, len(finals))
	probs := make([]float64, len(finals))
	for i, s := range finals {
		probs[i] = prob[s]
		locs := make([]int, g.Duration())
		for t := last; t >= 0; t, s = t-1, prev[s] {
			locs[t] = int(g.loc[s/int32(k)])
		}
		trajectories[i] = locs
	}
	return trajectories, probs
}

// MostProbable returns the valid trajectory with the highest conditioned
// probability and that probability (Viterbi decoding over the ct-graph):
// TopK(1), or (nil, 0) when the graph is empty or every path's probability
// underflows to 0.
func (g *Graph) MostProbable() ([]int, float64) {
	trajs, probs := g.TopK(1)
	if len(trajs) == 0 || probs[0] == 0 {
		return nil, 0
	}
	return trajs[0], probs[0]
}
