package constraints

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
)

func TestAddAndLookup(t *testing.T) {
	s := NewSet()
	s.AddDU(1, 2)
	if !s.Unreachable(1, 2) {
		t.Errorf("DU not stored")
	}
	if s.Unreachable(2, 1) {
		t.Errorf("DU should be directional")
	}

	s.AddLT(3, 5)
	if d, ok := s.Latency(3); !ok || d != 5 {
		t.Errorf("LT = %d, %v", d, ok)
	}
	s.AddLT(4, 1) // vacuous
	if _, ok := s.Latency(4); ok {
		t.Errorf("vacuous LT stored")
	}

	if err := s.AddTT(1, 3, 7); err != nil {
		t.Fatal(err)
	}
	if nu, ok := s.TT(1, 3); !ok || nu != 7 {
		t.Errorf("TT = %d, %v", nu, ok)
	}
	if _, ok := s.TT(3, 1); ok {
		t.Errorf("TT should be directional")
	}
	if err := s.AddTT(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	if nu, _ := s.TT(1, 3); nu != 7 {
		t.Errorf("weaker TT overwrote stronger: %d", nu)
	}
	if err := s.AddTT(5, 5, 3); err == nil {
		t.Errorf("self TT accepted")
	}
	if err := s.AddTT(5, 6, 1); err != nil || s.HasTTFrom(5) {
		t.Errorf("vacuous TT stored")
	}
	if s.MaxTravelingTime(1) != 7 {
		t.Errorf("MaxTravelingTime = %d", s.MaxTravelingTime(1))
	}
	if s.MaxTravelingTime(99) != 0 {
		t.Errorf("MaxTravelingTime of unconstrained loc should be 0")
	}

	du, lt, tt := s.Counts()
	if du != 1 || lt != 1 || tt != 1 {
		t.Errorf("Counts = %d %d %d", du, lt, tt)
	}
	if got := s.String(); !strings.Contains(got, "1 DU") {
		t.Errorf("String = %q", got)
	}
	if NewSet().String() != "constraints{}" {
		t.Errorf("empty String wrong")
	}
}

func TestNilSafety(t *testing.T) {
	var s *Set
	if s.Unreachable(1, 2) {
		t.Errorf("nil Unreachable true")
	}
	if _, ok := s.Latency(1); ok {
		t.Errorf("nil Latency found")
	}
	if _, ok := s.TT(1, 2); ok {
		t.Errorf("nil TT found")
	}
	if s.MaxTravelingTime(0) != 0 || s.HasTTFrom(0) {
		t.Errorf("nil TT helpers wrong")
	}
}

func TestCloneAndMerge(t *testing.T) {
	s := NewSet()
	s.AddDU(0, 1)
	s.AddLT(2, 4)
	if err := s.AddTT(0, 2, 5); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.AddDU(1, 0)
	if s.Unreachable(1, 0) {
		t.Errorf("clone not independent")
	}

	other := NewSet()
	other.AddLT(2, 6)
	if err := other.AddTT(0, 2, 9); err != nil {
		t.Fatal(err)
	}
	s.Merge(other)
	if d, _ := s.Latency(2); d != 6 {
		t.Errorf("merge kept weaker LT: %d", d)
	}
	if nu, _ := s.TT(0, 2); nu != 9 {
		t.Errorf("merge kept weaker TT: %d", nu)
	}
	s.Merge(nil) // no-op
}

func TestValidTrajectoryDU(t *testing.T) {
	s := NewSet()
	s.AddDU(0, 2)
	if !s.ValidTrajectory([]int{0, 1, 2}, StrictEnd) {
		t.Errorf("legal path rejected")
	}
	if s.ValidTrajectory([]int{0, 2}, StrictEnd) {
		t.Errorf("DU violation accepted")
	}
	// DU(l,l) forbids staying.
	s2 := NewSet()
	s2.AddDU(1, 1)
	if s2.ValidTrajectory([]int{1, 1}, StrictEnd) {
		t.Errorf("stay under DU(l,l) accepted")
	}
	if !s2.ValidTrajectory([]int{1, 0, 1}, StrictEnd) {
		t.Errorf("bouncing should be fine")
	}
}

func TestValidTrajectoryLT(t *testing.T) {
	s := NewSet()
	s.AddLT(1, 3)
	if !s.ValidTrajectory([]int{0, 1, 1, 1, 0}, StrictEnd) {
		t.Errorf("satisfied stay rejected")
	}
	if s.ValidTrajectory([]int{0, 1, 1, 0}, StrictEnd) {
		t.Errorf("2-long stay accepted with latency 3")
	}
	// Stay in progress at τ=0 counts as starting at 0.
	if s.ValidTrajectory([]int{1, 1, 0}, StrictEnd) {
		t.Errorf("short initial stay accepted")
	}
	if !s.ValidTrajectory([]int{1, 1, 1, 0}, StrictEnd) {
		t.Errorf("full initial stay rejected")
	}
	// End-of-window truncation: strict vs lenient.
	if s.ValidTrajectory([]int{0, 1, 1}, StrictEnd) {
		t.Errorf("strict mode accepted trailing short stay")
	}
	if !s.ValidTrajectory([]int{0, 1, 1}, LenientEnd) {
		t.Errorf("lenient mode rejected trailing short stay")
	}
	// Mid-trajectory short stay is invalid in both modes.
	if s.ValidTrajectory([]int{1, 0, 1, 0}, LenientEnd) {
		t.Errorf("lenient mode accepted mid short stay")
	}
}

func TestValidTrajectoryTT(t *testing.T) {
	s := NewSet()
	if err := s.AddTT(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	// 0 at τ=0, 2 at τ=2: gap 2 < 3 → invalid.
	if s.ValidTrajectory([]int{0, 1, 2}, StrictEnd) {
		t.Errorf("TT violation accepted")
	}
	// gap 3 → valid.
	if !s.ValidTrajectory([]int{0, 1, 1, 2}, StrictEnd) {
		t.Errorf("TT-satisfying path rejected")
	}
	// Direct move 0->2 in one step also violates TT.
	if s.ValidTrajectory([]int{0, 2}, StrictEnd) {
		t.Errorf("direct move violating TT accepted")
	}
	// The LAST visit binds: revisiting 0 resets the clock.
	if s.ValidTrajectory([]int{0, 1, 1, 0, 1, 2}, StrictEnd) {
		t.Errorf("TT should bind on the most recent visit")
	}
	if !s.ValidTrajectory([]int{0, 1, 1, 0, 1, 1, 2}, StrictEnd) {
		t.Errorf("TT after full gap from last visit rejected")
	}
	// Direction matters: 2 -> 0 is unconstrained.
	if !s.ValidTrajectory([]int{2, 0}, StrictEnd) {
		t.Errorf("reverse direction rejected")
	}
}

func TestValidTrajectoryEmpty(t *testing.T) {
	s := NewSet()
	if !s.ValidTrajectory(nil, StrictEnd) {
		t.Errorf("empty trajectory invalid")
	}
	if !s.ValidTrajectory([]int{3}, StrictEnd) {
		t.Errorf("unconstrained singleton invalid")
	}
}

// paperPlan builds the corridor plan used across packages:
// corridor (id 0) with rooms R0,R1,R2 (ids 1..3) connected only to it.
func paperPlan(t *testing.T) *floorplan.Plan {
	t.Helper()
	b := floorplan.NewBuilder()
	cor := b.AddLocation("corridor", floorplan.Corridor, 0, geom.RectWH(0, 0, 12, 2))
	r0 := b.AddLocation("R0", floorplan.Room, 0, geom.RectWH(0, 2, 4, 4))
	r1 := b.AddLocation("R1", floorplan.Room, 0, geom.RectWH(4, 2, 4, 4))
	r2 := b.AddLocation("R2", floorplan.Room, 0, geom.RectWH(8, 2, 4, 4))
	b.AddDoor(cor, r0, geom.Pt(2, 2), 1)
	b.AddDoor(cor, r1, geom.Pt(6, 2), 1)
	b.AddDoor(cor, r2, geom.Pt(10, 2), 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInferDU(t *testing.T) {
	p := paperPlan(t)
	s := InferDU(p)
	// Rooms are pairwise unreachable directly; corridor reaches all.
	if !s.Unreachable(1, 2) || !s.Unreachable(2, 1) || !s.Unreachable(1, 3) {
		t.Errorf("room-room DU missing")
	}
	if s.Unreachable(0, 1) || s.Unreachable(1, 0) {
		t.Errorf("corridor-room wrongly unreachable")
	}
	du, lt, tt := s.Counts()
	if du != 6 || lt != 0 || tt != 0 {
		t.Errorf("Counts = %d %d %d, want 6 0 0", du, lt, tt)
	}
}

func TestInferLT(t *testing.T) {
	p := paperPlan(t)
	s := InferLT(p, 5, floorplan.Corridor)
	if _, ok := s.Latency(0); ok {
		t.Errorf("corridor got a latency constraint")
	}
	for id := 1; id <= 3; id++ {
		if d, ok := s.Latency(id); !ok || d != 5 {
			t.Errorf("room %d latency = %d, %v", id, d, ok)
		}
	}
}

func TestInferTT(t *testing.T) {
	p := paperPlan(t)
	// Door positions: R0@(2,2), R1@(6,2), R2@(10,2). Distances: R0-R1 = 4,
	// R0-R2 = 8. With max speed 2 m/s: ν = 2 and 4.
	s, err := InferTT(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nu, ok := s.TT(1, 2); !ok || nu != 2 {
		t.Errorf("TT(R0,R1) = %d, %v", nu, ok)
	}
	if nu, ok := s.TT(1, 3); !ok || nu != 4 {
		t.Errorf("TT(R0,R2) = %d, %v", nu, ok)
	}
	if _, ok := s.TT(0, 1); ok {
		t.Errorf("directly connected pair got TT")
	}
	// Higher speed: R0-R1 becomes vacuous (4/4 = 1).
	s2, err := InferTT(p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.TT(1, 2); ok {
		t.Errorf("vacuous inferred TT stored")
	}
	if _, err := InferTT(p, 0, 0); err == nil {
		t.Errorf("zero speed accepted")
	}
}

func TestInferTTUnreachablePair(t *testing.T) {
	b := floorplan.NewBuilder()
	b.AddLocation("A", floorplan.Room, 0, geom.RectWH(0, 0, 4, 4))
	b.AddLocation("B", floorplan.Room, 0, geom.RectWH(10, 0, 4, 4))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := InferTT(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TT(0, 1); ok {
		t.Errorf("TT for physically unreachable pair")
	}
}

func TestDescribe(t *testing.T) {
	p := paperPlan(t)
	s := NewSet()
	s.AddDU(1, 2)
	s.AddLT(1, 5)
	if err := s.AddTT(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	lines := s.Describe(p)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"unreachable(R0, R1)", "latency(R0, 5)", "travelingTime(R0, R2, 4)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Describe missing %q in:\n%s", want, joined)
		}
	}
	// Without a plan, numeric names are used.
	lines = s.Describe(nil)
	if !strings.Contains(strings.Join(lines, "\n"), "unreachable(L1, L2)") {
		t.Errorf("Describe(nil) = %v", lines)
	}
}

func TestEndLatencyModeString(t *testing.T) {
	if StrictEnd.String() != "strict-end" || LenientEnd.String() != "lenient-end" {
		t.Errorf("mode strings wrong")
	}
}

// TestCompileCachedUntilChange: Compile returns one view until the set
// changes, and every change drops it.
func TestCompileCachedUntilChange(t *testing.T) {
	s := NewSet()
	s.AddDU(0, 1)
	c := s.Compile()
	if s.Compile() != c {
		t.Fatalf("a second Compile of an unchanged set built a new view")
	}
	other := NewSet()
	other.AddDU(3, 0)
	for name, change := range map[string]func(){
		"AddDU": func() { s.AddDU(1, 2) },
		"AddLT": func() { s.AddLT(2, 4) },
		"AddTT": func() { _ = s.AddTT(0, 2, 5) },
		"Merge": func() { s.Merge(other) },
	} {
		before := s.Compile()
		change()
		after := s.Compile()
		if after == before {
			t.Fatalf("%s kept the stale compiled view", name)
		}
		if s.Compile() != after {
			t.Fatalf("after %s, Compile does not cache", name)
		}
	}
	c = s.Compile()
	if !c.Unreachable(1, 2) || !c.Unreachable(3, 0) {
		t.Errorf("compiled view misses DU constraints")
	}
	if d, ok := c.Latency(2); !ok || d != 4 {
		t.Errorf("compiled latency(2) = %d, %v", d, ok)
	}
	if nu, ok := c.TT(0, 2); !ok || nu != 5 {
		t.Errorf("compiled TT(0,2) = %d, %v", nu, ok)
	}
}

// deadAfterByDefinition computes DeadAfter(at)[src] from the set's maps:
// the maximum over the TT targets l2 of src of ν(src, l2) − ν*(at, l2), with
// ν*(at, l2) = 0 when at = l2 and max(ν(at, l2), 2 if DU(at, l2) else 1)
// otherwise; 0 when src is no TT source, and src's maxTravelingTime when at
// is outside the compiled range.
func deadAfterByDefinition(s *Set, n, at, src int) int32 {
	if !s.HasTTFrom(src) {
		return 0
	}
	if at >= n {
		return int32(s.MaxTravelingTime(src))
	}
	best, found := 0, false
	for to := 0; to < n; to++ {
		nu, ok := s.TT(src, to)
		if !ok {
			continue
		}
		star := 0
		if at != to {
			star = 1
			if s.Unreachable(at, to) {
				star = 2
			}
			if v, ok := s.TT(at, to); ok && v > star {
				star = v
			}
		}
		if !found || nu-star > best {
			best, found = nu-star, true
		}
	}
	return int32(best)
}

// checkDeadAfter compares every row of the compiled dominance table, and
// the rows of locations past Len, with deadAfterByDefinition.
func checkDeadAfter(t *testing.T, s *Set) {
	t.Helper()
	c := s.Compile()
	n := c.Len()
	for at := 0; at < n+3; at++ {
		row := c.DeadAfter(at)
		if len(row) != n {
			t.Fatalf("DeadAfter(%d) has %d entries, want %d", at, len(row), n)
		}
		for src := 0; src < n; src++ {
			if want := deadAfterByDefinition(s, n, at, src); row[src] != want {
				t.Fatalf("%v: DeadAfter(%d)[%d] = %d, want %d", s.Describe(nil), at, src, row[src], want)
			}
		}
	}
}

// TestCompiledDeadAfter: the compiled dominance table equals its definition,
// brute force, on random sets mixing DU-only pairs, TT-only pairs, pairs
// with both and self-DU, at every location, location pairs with at = l2,
// locations no TT constraint leaves, and locations past the compiled range;
// and a set changed by AddTT after compiling compiles a table that matches
// the new set.
func TestCompiledDeadAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(20140330))
	for trial := 0; trial < 300; trial++ {
		s := NewSet()
		n := 1 + rng.Intn(7)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch rng.Intn(5) {
				case 1:
					s.AddDU(i, j)
				case 2:
					if i != j {
						_ = s.AddTT(i, j, 2+rng.Intn(9))
					}
				case 3:
					s.AddDU(i, j)
					if i != j {
						_ = s.AddTT(i, j, 2+rng.Intn(9))
					}
				}
			}
		}
		checkDeadAfter(t, s)
		from, to := rng.Intn(n+2), rng.Intn(n+2)
		if from == to {
			to = from + 1
		}
		_ = s.AddTT(from, to, 2+rng.Intn(9))
		checkDeadAfter(t, s)
	}

	// A hand-checked case: 0 → 2 takes 6, 1 → 2 takes 4, and 1 cannot
	// step to 0 directly.
	s := NewSet()
	_ = s.AddTT(0, 2, 6)
	_ = s.AddTT(1, 2, 4)
	s.AddDU(1, 0)
	c := s.Compile()
	for _, tc := range []struct {
		at, src int
		want    int32
	}{
		{0, 0, 6 - 6}, // at 0 itself, a TT constraint into 2 binds like the entry
		{1, 0, 6 - 4}, // at 1, reaching 2 takes 4 already
		{2, 0, 6},     // at the target itself
		{3, 0, 6},     // past the range: the entry's own expiry
		{0, 2, 0},     // 2 is no TT source
	} {
		if got := c.DeadAfter(tc.at)[tc.src]; got != tc.want {
			t.Errorf("DeadAfter(%d)[%d] = %d, want %d", tc.at, tc.src, got, tc.want)
		}
	}
}
