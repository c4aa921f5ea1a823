package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/constraints"
)

// TestQuickFromDistributionsNormalized: for arbitrary non-negative rows,
// normalizing then building an l-sequence always validates, and the prior of
// any trajectory assembled from per-step candidates is the product of its
// step probabilities.
func TestQuickFromDistributionsNormalized(t *testing.T) {
	f := func(raw [3][4]float64, picks [3]uint8) bool {
		dists := make([][]float64, 3)
		for i, row := range raw {
			r := make([]float64, len(row))
			total := 0.0
			for j, v := range row {
				v = math.Abs(v)
				if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
					v = 1
				}
				r[j] = v
				total += v
			}
			if total == 0 {
				r[0], total = 1, 1
			}
			for j := range r {
				r[j] /= total
			}
			dists[i] = r
		}
		ls := FromDistributions(dists)
		if err := ls.Validate(); err != nil {
			return false
		}
		// Assemble a trajectory from per-step candidate picks and check
		// PriorProbability multiplies the step probabilities.
		locs := make([]int, 3)
		want := 1.0
		for i := range locs {
			cands := ls.Steps[i].Candidates
			c := cands[int(picks[i])%len(cands)]
			locs[i] = c.Loc
			want *= c.P
		}
		got := ls.PriorProbability(locs)
		return math.Abs(got-want) <= 1e-12*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickTrajectoryKeyInjective: distinct short trajectories get distinct
// keys.
func TestQuickTrajectoryKeyInjective(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		la := []int{int(a[0]), int(a[1]), int(a[2]), int(a[3])}
		lb := []int{int(b[0]), int(b[1]), int(b[2]), int(b[3])}
		same := la[0] == lb[0] && la[1] == lb[1] && la[2] == lb[2] && la[3] == lb[3]
		return (TrajectoryKey(la) == TrajectoryKey(lb)) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNodeKeyReflectsIdentity: interned node keys agree exactly with
// field equality over a bounded domain.
func TestQuickNodeKeyReflectsIdentity(t *testing.T) {
	in := newTLInterner()
	type node struct {
		Loc, Stay int32
		TL        []TLEntry
	}
	mk := func(loc, stay uint8, tlLoc, tlTime uint8, hasTL bool) (*node, nodeKey) {
		n := &node{Loc: int32(loc % 8), Stay: int32(stay % 3)}
		if hasTL {
			n.TL = []TLEntry{{Time: int(tlTime % 4), Loc: int(tlLoc % 8)}}
		}
		k := nodeKey{loc: n.Loc, stay: n.Stay, tl: in.intern(n.TL)}
		return n, k
	}
	f := func(l1, s1, tl1, tt1 uint8, h1 bool, l2, s2, tl2, tt2 uint8, h2 bool) bool {
		a, ka := mk(l1, s1, tl1, tt1, h1)
		b, kb := mk(l2, s2, tl2, tt2, h2)
		equal := a.Loc == b.Loc && a.Stay == b.Stay && len(a.TL) == len(b.TL)
		if equal && len(a.TL) == 1 {
			equal = a.TL[0] == b.TL[0]
		}
		return (ka == kb) == equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickConditioningPreservesRatios: for random two-step scenarios where
// some trajectories die, the conditioned probabilities of any two surviving
// trajectories keep their a-priori ratio (§3.1).
func TestQuickConditioningPreservesRatios(t *testing.T) {
	f := func(w [3]float64, du uint8) bool {
		row := make([]float64, 3)
		total := 0.0
		for i, v := range w {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 1e-3 || v > 1e3 {
				v = 1
			}
			row[i] = v
			total += v
		}
		for i := range row {
			row[i] /= total
		}
		ls := FromDistributions([][]float64{row, row})
		ic := constraints.NewSet()
		ic.AddDU(int(du%3), int(du/3)%3)
		g, err := Build(ls, ic, nil)
		if err != nil {
			return true // everything died: nothing to compare
		}
		dist, err := g.conditionedDistribution(100)
		if err != nil {
			return false
		}
		var keys []string
		for k := range dist {
			keys = append(keys, k)
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				pa, pb := dist[keys[i]], dist[keys[j]]
				qa := priorOf(ls, keys[i])
				qb := priorOf(ls, keys[j])
				if math.Abs(pa*qb-pb*qa) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// priorOf parses a trajectory key back into locations and returns its prior.
func priorOf(ls *LSequence, key string) float64 {
	locs := make([]int, 0, ls.Duration())
	cur := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			locs = append(locs, cur)
			cur = 0
			continue
		}
		cur = cur*10 + int(key[i]-'0')
	}
	return ls.PriorProbability(locs)
}
