// Package constraints implements the three families of integrity constraints
// the paper's cleaning framework conditions on (§3):
//
//   - direct unreachability: unreachable(l1, l2) — no object can reach l2
//     from l1 in one time point;
//   - traveling time: travelingTime(l1, l2, ν) — moving from l1 to l2 takes
//     at least ν time points;
//   - latency: latency(l, δ) — every stay at l lasts at least δ time points.
//
// It also provides the automatic inference the paper's experiments use
// (§6.3 and footnote 1): DU constraints from the map's door structure, TT
// constraints from minimum walking distances and the objects' maximum speed,
// and LT constraints from a minimum-stay policy.
//
// Finally, it implements Definition 2 directly: a trajectory-validity check
// that is independent of the ct-graph construction, used as the ground-truth
// oracle in the core package's property tests.
package constraints

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/floorplan"
)

// EndLatencyMode selects how latency constraints treat a stay truncated by
// the end of the monitoring window (a corner Definition 2 and Algorithm 1
// resolve differently; see DESIGN.md §3).
type EndLatencyMode int

const (
	// StrictEnd follows Definition 2 literally: a stay that starts too
	// close to the end of the window to reach its required length makes
	// the trajectory invalid.
	StrictEnd EndLatencyMode = iota
	// LenientEnd follows Algorithm 1 as printed: the window end truncates
	// the obligation, so a trailing short stay is allowed.
	LenientEnd
)

// String implements fmt.Stringer.
func (m EndLatencyMode) String() string {
	if m == LenientEnd {
		return "lenient-end"
	}
	return "strict-end"
}

// Set is a set of integrity constraints over locations identified by dense
// integer IDs (as assigned by a floorplan.Plan). The zero value is an empty
// set; use NewSet for a set sized to a known number of locations.
type Set struct {
	unreach map[[2]int]bool
	latency map[int]int
	tt      map[int]map[int]int // from -> to -> min traveling time ν
	maxTT   map[int]int         // from -> max ν over its TT constraints

	compiled atomic.Pointer[Compiled] // Compile's result until the set changes
}

// NewSet returns an empty constraint set.
func NewSet() *Set {
	return &Set{
		unreach: make(map[[2]int]bool),
		latency: make(map[int]int),
		tt:      make(map[int]map[int]int),
		maxTT:   make(map[int]int),
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for k, v := range s.unreach {
		c.unreach[k] = v
	}
	for k, v := range s.latency {
		c.latency[k] = v
	}
	for from, m := range s.tt {
		cm := make(map[int]int, len(m))
		for to, v := range m {
			cm[to] = v
		}
		c.tt[from] = cm
	}
	for k, v := range s.maxTT {
		c.maxTT[k] = v
	}
	return c
}

// AddDU adds unreachable(from, to). DU constraints are directional; add both
// orders for a symmetric wall. from == to is allowed and means the object
// can never remain at the location for two consecutive time points.
func (s *Set) AddDU(from, to int) {
	s.unreach[[2]int{from, to}] = true
	s.compiled.Store(nil)
}

// AddLT adds latency(loc, minStay). Constraints with minStay <= 1 are
// vacuous (every stay lasts at least one time point) and are dropped.
func (s *Set) AddLT(loc, minStay int) {
	if minStay > 1 {
		s.latency[loc] = minStay
		s.compiled.Store(nil)
	}
}

// AddTT adds travelingTime(from, to, ν). Constraints with ν <= 1 are vacuous
// and dropped. from == to with ν > 1 would forbid any stay of length two and
// is rejected as pathological.
func (s *Set) AddTT(from, to, nu int) error {
	if nu <= 1 {
		return nil
	}
	if from == to {
		return fmt.Errorf("constraints: travelingTime(%d,%d,%d) forbids staying at %d; use AddDU for that",
			from, to, nu, from)
	}
	m := s.tt[from]
	if m == nil {
		m = make(map[int]int)
		s.tt[from] = m
	}
	if nu > m[to] {
		m[to] = nu
	}
	if nu > s.maxTT[from] {
		s.maxTT[from] = nu
	}
	s.compiled.Store(nil)
	return nil
}

// Unreachable reports whether unreachable(from, to) holds.
func (s *Set) Unreachable(from, to int) bool {
	if s == nil || s.unreach == nil {
		return false
	}
	return s.unreach[[2]int{from, to}]
}

// Latency returns the minimum stay length for loc and whether a (non-vacuous)
// latency constraint exists.
func (s *Set) Latency(loc int) (minStay int, ok bool) {
	if s == nil || s.latency == nil {
		return 0, false
	}
	minStay, ok = s.latency[loc]
	return minStay, ok
}

// TT returns the minimum traveling time from one location to another and
// whether such a constraint exists.
func (s *Set) TT(from, to int) (nu int, ok bool) {
	if s == nil || s.tt == nil {
		return 0, false
	}
	m, ok := s.tt[from]
	if !ok {
		return 0, false
	}
	nu, ok = m[to]
	return nu, ok
}

// HasTTFrom reports whether any TT constraint has from as its first argument.
func (s *Set) HasTTFrom(from int) bool {
	if s == nil {
		return false
	}
	return len(s.tt[from]) > 0
}

// MaxTravelingTime returns the paper's maxTravelingTime(from): the maximum ν
// over all TT constraints leaving from, or 0 when there are none.
func (s *Set) MaxTravelingTime(from int) int {
	if s == nil {
		return 0
	}
	return s.maxTT[from]
}

// Compiled is a slice-backed, read-only view of a Set for hot paths: every
// lookup is a bounds check plus an array index instead of a map probe.
// Locations at or beyond the compiled range simply have no constraints, so
// the view answers correctly for any location ID.
type Compiled struct {
	n       int
	unreach []bool  // [from*n+to]
	latency []int32 // [loc], 0 = no constraint
	tt      []int32 // [from*n+to], 0 = no constraint
	maxTT   []int32 // [from]
	hasTT   []bool  // [from]

	// dead[at*n+l'] is the age past which a TL entry for l' can no longer
	// prune any move of a node at location at (see DeadAfter).
	dead []int32
}

// Compile returns the dense view of the set. It is built on the first call
// and kept until the set changes (AddDU, AddLT, AddTT and Merge drop it), so
// every build over one set shares one view. Compile may run concurrently
// with other reads of the set, but not with a change to it.
func (s *Set) Compile() *Compiled {
	if c := s.compiled.Load(); c != nil {
		return c
	}
	c := s.compile()
	s.compiled.Store(c)
	return c
}

func (s *Set) compile() *Compiled {
	n := 0
	track := func(loc int) {
		if loc+1 > n {
			n = loc + 1
		}
	}
	for k := range s.unreach {
		track(k[0])
		track(k[1])
	}
	for loc := range s.latency {
		track(loc)
	}
	for from, m := range s.tt {
		track(from)
		for to := range m {
			track(to)
		}
	}
	c := &Compiled{
		n:       n,
		unreach: make([]bool, n*n),
		latency: make([]int32, n),
		tt:      make([]int32, n*n),
		maxTT:   make([]int32, n),
		hasTT:   make([]bool, n),
	}
	for k, v := range s.unreach {
		if v {
			c.unreach[k[0]*n+k[1]] = true
		}
	}
	for loc, d := range s.latency {
		c.latency[loc] = int32(d)
	}
	for from, m := range s.tt {
		for to, nu := range m {
			c.tt[from*n+to] = int32(nu)
		}
		c.hasTT[from] = len(m) > 0
		c.maxTT[from] = int32(s.maxTT[from])
	}
	c.dead = make([]int32, n*n)
	steps := make([]int32, n)
	for at := 0; at < n; at++ {
		for to := range steps {
			steps[to] = c.minSteps(at, to)
		}
		for src := 0; src < n; src++ {
			if !c.hasTT[src] {
				continue
			}
			dead := int32(math.MinInt32)
			for to, nu := range c.tt[src*n : (src+1)*n] {
				if nu != 0 {
					dead = max(dead, nu-steps[to])
				}
			}
			c.dead[at*n+src] = dead
		}
	}
	return c
}

// minSteps returns ν*(at, to), the fewest time points the constraints
// themselves allow between being at at and arriving at to: 0 when at = to,
// otherwise at least 1, at least 2 across a DU constraint, and at least ν
// across a TT constraint. at and to must be below Len.
func (c *Compiled) minSteps(at, to int) int32 {
	if at == to {
		return 0
	}
	steps := max(c.tt[at*c.n+to], 1)
	if c.unreach[at*c.n+to] {
		steps = max(steps, 2)
	}
	return steps
}

// Len returns the compiled range: every location that has a constraint is
// below it.
func (c *Compiled) Len() int { return c.n }

// Unreachable mirrors Set.Unreachable.
func (c *Compiled) Unreachable(from, to int) bool {
	return uint(from) < uint(c.n) && uint(to) < uint(c.n) && c.unreach[from*c.n+to]
}

// Latency mirrors Set.Latency.
func (c *Compiled) Latency(loc int) (minStay int, ok bool) {
	if uint(loc) >= uint(c.n) || c.latency[loc] == 0 {
		return 0, false
	}
	return int(c.latency[loc]), true
}

// TT mirrors Set.TT.
func (c *Compiled) TT(from, to int) (nu int, ok bool) {
	if uint(from) >= uint(c.n) || uint(to) >= uint(c.n) {
		return 0, false
	}
	if v := c.tt[from*c.n+to]; v != 0 {
		return int(v), true
	}
	return 0, false
}

// HasTTFrom mirrors Set.HasTTFrom.
func (c *Compiled) HasTTFrom(from int) bool {
	return uint(from) < uint(c.n) && c.hasTT[from]
}

// MaxTravelingTimes returns Set.MaxTravelingTime of every location below
// Len, indexed by location. Callers must not modify it.
func (c *Compiled) MaxTravelingTimes() []int32 { return c.maxTT }

// DeadAfter returns, for a node at location at, the age past which a TL
// entry is dead, indexed by the entry's location: an entry (τ', l') of such a
// node at timestamp t can never prune a later move once t − τ' ≥ row[l'].
// row[l'] is the maximum, over the TT targets l2 of l', of ν(l', l2) −
// ν*(at, l2), where ν*(at, l2) is the fewest time points the constraints
// allow from at to l2 (minSteps): any arrival at l2 comes at least ν* after
// t, so an entry older than the row's value is already met there. Locations
// that no TT constraint leaves get 0. When at is outside the compiled range
// the row is MaxTravelingTimes, the age at which every entry expires anyway,
// so the rule drops nothing there. Callers must not modify it.
func (c *Compiled) DeadAfter(at int) []int32 {
	if uint(at) >= uint(c.n) {
		return c.maxTT
	}
	return c.dead[at*c.n : (at+1)*c.n]
}

// Counts returns the number of DU, LT and TT constraints in the set.
func (s *Set) Counts() (du, lt, tt int) {
	du = len(s.unreach)
	lt = len(s.latency)
	for _, m := range s.tt {
		tt += len(m)
	}
	return du, lt, tt
}

// String summarizes the set.
func (s *Set) String() string {
	du, lt, tt := s.Counts()
	var parts []string
	if du > 0 {
		parts = append(parts, fmt.Sprintf("%d DU", du))
	}
	if lt > 0 {
		parts = append(parts, fmt.Sprintf("%d LT", lt))
	}
	if tt > 0 {
		parts = append(parts, fmt.Sprintf("%d TT", tt))
	}
	if len(parts) == 0 {
		return "constraints{}"
	}
	return "constraints{" + strings.Join(parts, ", ") + "}"
}

// Merge adds all constraints of other into s.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	s.compiled.Store(nil)
	for k := range other.unreach {
		s.unreach[k] = true
	}
	for loc, d := range other.latency {
		if d > s.latency[loc] {
			s.latency[loc] = d
		}
	}
	for from, m := range other.tt {
		for to, nu := range m {
			// Only same-location TT can error, and other was validated.
			_ = s.AddTT(from, to, nu)
		}
	}
}

// ValidTrajectory implements Definition 2 directly: it reports whether the
// trajectory (locs[τ] is the object's location at time τ) satisfies every
// constraint in the set, under the given end-of-window latency mode.
func (s *Set) ValidTrajectory(locs []int, mode EndLatencyMode) bool {
	n := len(locs)
	if n == 0 {
		return true
	}
	// DU: consecutive steps.
	for i := 0; i+1 < n; i++ {
		if s.Unreachable(locs[i], locs[i+1]) {
			return false
		}
	}
	// LT: every stay starting at τ (τ=0 or a location change) must run at
	// least δ time points.
	for i := 0; i < n; i++ {
		if i > 0 && locs[i] == locs[i-1] {
			continue // not a stay start
		}
		delta, ok := s.Latency(locs[i])
		if !ok {
			continue
		}
		runEnd := i
		for runEnd+1 < n && locs[runEnd+1] == locs[i] {
			runEnd++
		}
		length := runEnd - i + 1
		if length >= delta {
			continue
		}
		// Stay shorter than required: invalid unless it was truncated
		// by the window end and we are lenient about that.
		if mode == LenientEnd && runEnd == n-1 {
			continue
		}
		return false
	}
	// TT: no pair (τ1, l1), (τ2, l2) with τ1 < τ2 and τ2 − τ1 < ν.
	// It suffices to look back maxTT(l1)−1 steps from each τ2.
	for t2 := 1; t2 < n; t2++ {
		l2 := locs[t2]
		for back := 1; back < t2+1; back++ {
			t1 := t2 - back
			l1 := locs[t1]
			if nu, ok := s.TT(l1, l2); ok && back < nu {
				return false
			}
			// Early exit: nothing reaching further back can bind
			// if even the largest ν from any location is exceeded.
			// (Conservative: we just cap at the global max.)
			if back >= s.globalMaxTT() {
				break
			}
		}
	}
	return true
}

// globalMaxTT returns the maximum ν over all TT constraints.
func (s *Set) globalMaxTT() int {
	max := 0
	for _, v := range s.maxTT {
		if v > max {
			max = v
		}
	}
	return max
}

// InferDU derives all direct-unreachability constraints implied by the map:
// unreachable(a, b) for every ordered pair of distinct locations not sharing
// a door (§6.3, set DU).
func InferDU(plan *floorplan.Plan) *Set {
	s := NewSet()
	n := plan.NumLocations()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && !plan.DirectlyConnected(a, b) {
				s.AddDU(a, b)
			}
		}
	}
	return s
}

// InferLT derives latency constraints imposing a minimum stay of minStay
// time points at every location whose kind is not among the excluded ones
// (§6.3 uses 5 seconds for every location but the corridors).
func InferLT(plan *floorplan.Plan, minStay int, exclude ...floorplan.Kind) *Set {
	s := NewSet()
	skip := make(map[floorplan.Kind]bool, len(exclude))
	for _, k := range exclude {
		skip[k] = true
	}
	for _, l := range plan.Locations() {
		if !skip[l.Kind] {
			s.AddLT(l.ID, minStay)
		}
	}
	return s
}

// InferTT derives traveling-time constraints for every ordered pair of
// locations that are connected but not directly connected: ν is the minimum
// walking distance divided by the maximum speed (meters per time point),
// rounded down so the constraint is sound (§6.3, set TT). Vacuous
// constraints (ν <= 1) are dropped.
//
// A positive cap truncates every ν at that many time points. Capping keeps
// the constraints sound (they only get weaker) while bounding the lifetime
// of the TT bookkeeping the ct-graph carries per node, which §6.5 identifies
// as the cost driver on large maps: maxTravelingTime grows with the map
// diameter, and with it the number of location nodes per (timestamp,
// location) pair. Pass cap <= 0 for the paper's uncapped inference.
func InferTT(plan *floorplan.Plan, maxSpeed float64, cap int) (*Set, error) {
	if maxSpeed <= 0 {
		return nil, fmt.Errorf("constraints: max speed must be positive, got %g", maxSpeed)
	}
	s := NewSet()
	n := plan.NumLocations()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || plan.DirectlyConnected(a, b) {
				continue
			}
			d := plan.MinWalkDistance(a, b)
			if math.IsInf(d, 1) {
				continue // unreachable pairs are covered by DU only
			}
			nu := int(d / maxSpeed)
			if cap > 0 && nu > cap {
				nu = cap
			}
			if nu > 1 {
				if err := s.AddTT(a, b, nu); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// Describe renders the constraints readably using the plan's location names,
// in a deterministic order. Intended for debugging and the CLI tools.
func (s *Set) Describe(plan *floorplan.Plan) []string {
	name := func(id int) string {
		if plan != nil && id >= 0 && id < plan.NumLocations() {
			return plan.Location(id).Name
		}
		return fmt.Sprintf("L%d", id)
	}
	var out []string
	for k := range s.unreach {
		out = append(out, fmt.Sprintf("unreachable(%s, %s)", name(k[0]), name(k[1])))
	}
	for loc, d := range s.latency {
		out = append(out, fmt.Sprintf("latency(%s, %d)", name(loc), d))
	}
	for from, m := range s.tt {
		for to, nu := range m {
			out = append(out, fmt.Sprintf("travelingTime(%s, %s, %d)", name(from), name(to), nu))
		}
	}
	sort.Strings(out)
	return out
}
