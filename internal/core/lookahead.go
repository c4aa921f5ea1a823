package core

import (
	"math"

	"repro/internal/constraints"
)

// never is the deadline of a TT source none of whose targets is a candidate
// again: far above any timestamp, and far enough below MaxInt32 that
// subtracting a traveling time cannot wrap.
const never = math.MaxInt32 / 2

// lookahead is the offline forward phase's view of the readings still to
// come, which a stream does not have. A TL entry (τ', l') can only prune a
// move into a TT target l2 of l' made before τ' + ν(l', l2). So once no
// target is a candidate early enough, the entry can never prune again: it is
// dead, and nodes that differ only in dead entries have identical futures.
//
// deadline(t, l') is the minimum over the targets l2 of l' of first(t, l2) −
// ν(l', l2), first(t, l2) being the first timestamp ≥ t at which l2 is a
// candidate. An entry (τ', l') of a node at timestamp t is dead iff
// deadline(t+1, l') ≥ τ'. first only grows with t, so a dead entry stays
// dead. Build looks ahead only beside the dominance rule (internTL), and an
// entry dead by either rule is dropped.
type lookahead struct {
	col      []int32 // col[l] is TT source l's column of deadlines, -1 for other locations (the compiled view's)
	width    int     // columns: one per TT source
	deadline []int32 // deadline(t, l') at [t*width + col[l']], t in [0, duration]
}

// newLookahead tabulates the deadlines of ls under cs, or returns nil when cs
// has no TT constraint. Going back in time, first(t, ·) differs from
// first(t+1, ·) only at the candidates of t, so each row is the next one
// lowered through the constraints into those candidates (the compiled
// view's table of ν by target and source): O(duration × candidates × TT
// sources). Candidate locations outside cs's range are never TT targets and
// are ignored.
func newLookahead(cs *constraints.Compiled, ls *LSequence) *lookahead {
	if cs.TTSources() == 0 {
		return nil
	}
	la := &lookahead{col: cs.TTColumns(), width: cs.TTSources()}
	duration := len(ls.Steps)
	la.deadline = make([]int32, (duration+1)*la.width)
	row := la.row(duration)
	for c := range row {
		row[c] = never
	}
	for t := duration - 1; t >= 0; t-- {
		row = la.row(t)
		copy(row, la.row(t+1))
		for _, cand := range ls.Steps[t].Candidates {
			for c, nu := range cs.TTInto(cand.Loc) {
				if nu != 0 {
					row[c] = min(row[c], int32(t)-nu)
				}
			}
		}
	}
	return la
}

// row returns the deadlines of timestamp t, indexed by column.
func (la *lookahead) row(t int) []int32 {
	return la.deadline[t*la.width : (t+1)*la.width]
}
