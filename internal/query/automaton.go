package query

import "sort"

// otherSymbol stands for every location not mentioned by the pattern; the
// DFA treats all such locations identically, keeping the alphabet small.
const otherSymbol = -1

// nfa is the epsilon-NFA compiled from a pattern.
type nfa struct {
	numStates int
	// eps[q] lists epsilon successors of q.
	eps [][]int
	// step[q] maps a symbol (location ID or otherSymbol) to successors.
	step []map[int][]int
	// accept is the single accepting state (end of the pattern).
	accept int
	// symbols are the location IDs mentioned by the pattern, sorted.
	symbols []int
}

// compileNFA builds the NFA of a pattern:
//
//   - wildcard: one state with a self-loop on every symbol, skippable via ε;
//   - At(l, n): a chain of n consuming transitions on l ending in a state
//     with a self-loop on l (runs of length > n).
func compileNFA(p Pattern) *nfa {
	symSet := make(map[int]bool)
	for _, c := range p {
		if !c.Wildcard {
			symSet[c.Loc] = true
		}
	}
	a := &nfa{}
	newState := func() int {
		a.numStates++
		a.eps = append(a.eps, nil)
		a.step = append(a.step, make(map[int][]int))
		return a.numStates - 1
	}
	addSym := func(q, sym, to int) { a.step[q][sym] = append(a.step[q][sym], to) }

	cur := newState() // start
	for _, c := range p {
		if c.Wildcard {
			w := newState()
			a.eps[cur] = append(a.eps[cur], w)
			for sym := range symSet {
				addSym(w, sym, w)
			}
			addSym(w, otherSymbol, w)
			cur = w
			continue
		}
		for i := 0; i < c.MinLen; i++ {
			next := newState()
			addSym(cur, c.Loc, next)
			cur = next
		}
		addSym(cur, c.Loc, cur) // allow longer runs
	}
	a.accept = cur
	for sym := range symSet {
		a.symbols = append(a.symbols, sym)
	}
	sort.Ints(a.symbols)
	return a
}

// closure expands a set of states with epsilon transitions; states is a
// sorted, deduplicated slice.
func (a *nfa) closure(states []int) []int {
	seen := make(map[int]bool, len(states))
	stack := append([]int(nil), states...)
	for _, q := range states {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range a.eps[q] {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// dfa is the determinized automaton. State 0 is the start state.
type dfa struct {
	// trans is the transition table, one row per state and one column per
	// alphabet index (see symbolOf): trans[q*(len(symbols)+1)+a] is the
	// state after consuming symbol a from q, or -1 (dead).
	trans []int32
	// accepting[q] reports whether q contains the NFA accept state.
	accepting []bool
	symbols   []int
}

// compile builds the DFA of a pattern via subset construction.
func compile(p Pattern) *dfa {
	a := compileNFA(p)
	d := &dfa{symbols: a.symbols}
	index := make(map[string]int)
	var subsets [][]int

	keyOf := func(states []int) string {
		b := make([]byte, 0, len(states)*3)
		for _, q := range states {
			b = append(b, byte(q), byte(q>>8), byte(q>>16))
		}
		return string(b)
	}
	alphabet := append(append([]int(nil), a.symbols...), otherSymbol)
	intern := func(states []int) int {
		k := keyOf(states)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(subsets)
		index[k] = id
		subsets = append(subsets, states)
		for range alphabet {
			d.trans = append(d.trans, -1)
		}
		acc := false
		for _, q := range states {
			if q == a.accept {
				acc = true
				break
			}
		}
		d.accepting = append(d.accepting, acc)
		return id
	}

	intern(a.closure([]int{0}))
	for work := 0; work < len(subsets); work++ {
		states := subsets[work]
		for si, sym := range alphabet {
			var nextSet []int
			seen := make(map[int]bool)
			for _, q := range states {
				for _, r := range a.step[q][sym] {
					if !seen[r] {
						seen[r] = true
						nextSet = append(nextSet, r)
					}
				}
			}
			if len(nextSet) == 0 {
				continue // dead
			}
			sort.Ints(nextSet)
			to := intern(a.closure(nextSet))
			d.row(work)[si] = int32(to)
		}
	}
	return d
}

// states returns the number of DFA states.
func (d *dfa) states() int { return len(d.accepting) }

// symbolOf maps a location to its alphabet index: its place among the
// mentioned locations, or len(symbols) for otherSymbol.
func (d *dfa) symbolOf(loc int) int {
	i := sort.SearchInts(d.symbols, loc)
	if i < len(d.symbols) && d.symbols[i] == loc {
		return i
	}
	return len(d.symbols)
}

// row returns state q's transitions, indexed by alphabet index.
func (d *dfa) row(q int) []int32 {
	w := len(d.symbols) + 1
	return d.trans[q*w : (q+1)*w]
}

// next returns the state after consuming loc from state q, or -1 (dead).
func (d *dfa) next(q, loc int) int {
	if q < 0 {
		return -1
	}
	return int(d.row(q)[d.symbolOf(loc)])
}

// matches runs the DFA over a concrete location sequence.
func (d *dfa) matches(locs []int) bool {
	q := 0
	for _, loc := range locs {
		q = d.next(q, loc)
		if q < 0 {
			return false
		}
	}
	return d.accepting[q]
}
