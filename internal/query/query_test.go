package query

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/stats"
)

// pathLocs returns the location sequence of a path given as one node index
// per level, as WalkPaths hands it out.
func pathLocs(g *core.Graph, path []int) []int {
	locs := make([]int, len(path))
	for t, i := range path {
		locs[t] = g.Level(t).Loc(i)
	}
	return locs
}

// refMatches is an independent reference implementation of pattern matching
// by brute-force splitting, used to validate the DFA.
func refMatches(p Pattern, locs []int) bool {
	var rec func(ci, pos int) bool
	rec = func(ci, pos int) bool {
		if ci == len(p) {
			return pos == len(locs)
		}
		c := p[ci]
		if c.Wildcard {
			for skip := 0; pos+skip <= len(locs); skip++ {
				if rec(ci+1, pos+skip) {
					return true
				}
			}
			return false
		}
		// Consume a run of c.Loc of length >= c.MinLen.
		run := 0
		for pos+run < len(locs) && locs[pos+run] == c.Loc {
			run++
			if run >= c.MinLen && rec(ci+1, pos+run) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

func TestMatchesBasics(t *testing.T) {
	cases := []struct {
		pattern Pattern
		locs    []int
		want    bool
	}{
		{Pattern{Wild()}, []int{1, 2, 3}, true},
		{Pattern{Wild()}, []int{}, true},
		{Pattern{At(1, 1)}, []int{1}, true},
		{Pattern{At(1, 1)}, []int{1, 1, 1}, true},
		{Pattern{At(1, 1)}, []int{1, 2}, false},
		{Pattern{At(1, 2)}, []int{1}, false},
		{Pattern{At(1, 2)}, []int{1, 1}, true},
		{Pattern{Wild(), At(1, 3), Wild()}, []int{0, 1, 1, 1, 2}, true},
		{Pattern{Wild(), At(1, 3), Wild()}, []int{0, 1, 1, 2, 1}, false},
		{Pattern{Wild(), At(1, 1), Wild(), At(2, 2), Wild()}, []int{1, 0, 2, 2}, true},
		{Pattern{Wild(), At(1, 1), Wild(), At(2, 2), Wild()}, []int{2, 2, 1}, false},
		{At(1, 1).asPattern(), []int{2}, false},
		// Adjacent same-location conditions: l[2] l[1] needs a run >= 3.
		{Pattern{At(1, 2), At(1, 1)}, []int{1, 1, 1}, true},
		{Pattern{At(1, 2), At(1, 1)}, []int{1, 1}, false},
		// Anchor at the very start/end without wildcards.
		{Pattern{At(1, 1), Wild(), At(2, 1)}, []int{1, 5, 5, 2}, true},
		{Pattern{At(1, 1), Wild(), At(2, 1)}, []int{5, 1, 2}, false},
	}
	for i, c := range cases {
		got, err := Matches(c.pattern, c.locs)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: Matches(%v, %v) = %v, want %v", i, c.pattern, c.locs, got, c.want)
		}
		if ref := refMatches(c.pattern, c.locs); ref != c.want {
			t.Errorf("case %d: reference matcher disagrees (%v)", i, ref)
		}
	}
}

// asPattern helps build single-condition patterns in table tests.
func (c Condition) asPattern() Pattern { return Pattern{c} }

func TestPropertyDFAEqualsReference(t *testing.T) {
	rng := stats.NewRNG(2024)
	for trial := 0; trial < 3000; trial++ {
		// Random pattern over locations {0,1,2}.
		var p Pattern
		n := rng.IntRange(1, 4)
		for i := 0; i < n; i++ {
			if rng.Bernoulli(0.4) {
				p = append(p, Wild())
			} else {
				p = append(p, At(rng.Intn(3), rng.IntRange(1, 3)))
			}
		}
		locs := make([]int, rng.IntRange(0, 8))
		for i := range locs {
			locs[i] = rng.Intn(4) // includes a location the pattern never names
		}
		got, err := Matches(p, locs)
		if err != nil {
			t.Fatal(err)
		}
		if want := refMatches(p, locs); got != want {
			t.Fatalf("trial %d: Matches(%q, %v) = %v, reference %v", trial, p.String(), locs, got, want)
		}
	}
}

func buildGraph(t *testing.T, dists [][]float64, ic *constraints.Set) *core.Graph {
	t.Helper()
	g, err := core.Build(core.FromDistributions(dists), ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStayMatchesMarginals(t *testing.T) {
	ic := constraints.NewSet()
	ic.AddDU(0, 2)
	g := buildGraph(t, [][]float64{
		{0.5, 0.5},
		{0.2, 0.3, 0.5},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}, ic)
	e := NewEngine(g, 3)
	m, err := g.Marginals(3)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 0; tau < 3; tau++ {
		dist, err := e.Stay(tau)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for loc := range dist {
			if math.Abs(dist[loc]-m[tau][loc]) > 1e-12 {
				t.Errorf("Stay(%d)[%d] = %v, marginal %v", tau, loc, dist[loc], m[tau][loc])
			}
			sum += dist[loc]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Stay(%d) sums to %v", tau, sum)
		}
	}
	if _, err := e.Stay(-1); err == nil {
		t.Errorf("negative timestamp accepted")
	}
	if _, err := e.Stay(3); err == nil {
		t.Errorf("out-of-window timestamp accepted")
	}
}

func TestTrajectoryProbabilityAgainstEnumeration(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		// Random graph over 3 locations, 4 timestamps.
		dists := make([][]float64, 4)
		for tau := range dists {
			row := make([]float64, 3)
			total := 0.0
			for l := range row {
				row[l] = rng.Range(0.05, 1)
				total += row[l]
			}
			for l := range row {
				row[l] /= total
			}
			dists[tau] = row
		}
		ic := constraints.NewSet()
		if rng.Bernoulli(0.5) {
			ic.AddDU(rng.Intn(3), rng.Intn(3))
		}
		g, err := core.Build(core.FromDistributions(dists), ic, nil)
		if errors.Is(err, core.ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		p := RandomPattern(rng, []int{0, 1, 2}, rng.IntRange(1, 2))
		// Shrink run lengths so short windows can match sometimes.
		for i := range p {
			if !p[i].Wildcard && p[i].MinLen > 2 {
				p[i].MinLen = rng.IntRange(1, 2)
			}
		}
		e := NewEngine(g, 3)
		got, err := e.Trajectory(p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		err = g.WalkPaths(1<<20, func(path []int, prob float64) {
			if refMatches(p, pathLocs(g, path)) {
				want += prob
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Trajectory(%q) = %v, enumeration %v", trial, p.String(), got, want)
		}
	}
}

func TestTrajectoryImpossiblePattern(t *testing.T) {
	g := buildGraph(t, [][]float64{{1}, {1}}, nil)
	e := NewEngine(g, 2)
	p, err := e.Trajectory(Pattern{At(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("impossible pattern has probability %v", p)
	}
	// Pattern longer than the window.
	p, err = e.Trajectory(Pattern{At(0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("too-long pattern has probability %v", p)
	}
}

// TestTrajectoryPatternLongerThanWindow: a run length past the window's
// duration answers exactly 0 without compiling the pattern (the automaton
// has one state per unit of run length, so `? lab[1000000000] ?` would
// otherwise take the process down), and summing the run lengths cannot
// overflow.
func TestTrajectoryPatternLongerThanWindow(t *testing.T) {
	g := buildGraph(t, [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}, nil)
	e := NewEngine(g, 2)
	for _, p := range []Pattern{
		{Wild(), At(1, 1_000_000_000), Wild()},
		{At(0, math.MaxInt), At(1, math.MaxInt)},
		{At(0, 2), Wild(), At(1, 2)},
	} {
		done := make(chan struct{})
		var got float64
		var err error
		go func() {
			defer close(done)
			got, err = e.Trajectory(p)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Trajectory(%v) still running after 10s", p)
		}
		if err != nil || got != 0 {
			t.Fatalf("Trajectory(%v) = %v, %v; want 0", p, got, err)
		}
	}
	// At exactly the window's length the pattern is still evaluated.
	got, err := e.Trajectory(Pattern{At(0, 3)})
	if err != nil || math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("Trajectory(L0[3]) = %v, %v; want 0.125", got, err)
	}
	if (Pattern{Wild(), At(0, 3)}).longerThan(3) || !(Pattern{At(0, 2), At(1, 2)}).longerThan(3) {
		t.Fatal("longerThan misjudges the window boundary")
	}
}

func TestTrajectoryInvalidPattern(t *testing.T) {
	g := buildGraph(t, [][]float64{{1}}, nil)
	e := NewEngine(g, 1)
	if _, err := e.Trajectory(nil); err == nil {
		t.Errorf("nil pattern accepted")
	}
	if _, err := e.Trajectory(Pattern{{Loc: -2, MinLen: 1}}); err == nil {
		t.Errorf("negative location accepted")
	}
}

func TestParsePattern(t *testing.T) {
	resolve := func(name string) (int, error) {
		switch name {
		case "lobby":
			return 0, nil
		case "lab":
			return 1, nil
		}
		return 0, fmt.Errorf("unknown location %q", name)
	}
	p, err := ParsePattern("? lobby[3] ? lab ?", resolve)
	if err != nil {
		t.Fatal(err)
	}
	want := Pattern{Wild(), At(0, 3), Wild(), At(1, 1), Wild()}
	if len(p) != len(want) {
		t.Fatalf("parsed %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("condition %d = %+v, want %+v", i, p[i], want[i])
		}
	}
	for _, bad := range []string{"", "lobby[", "lobby[0]", "lobby[x]", "[3]", "nowhere"} {
		if _, err := ParsePattern(bad, resolve); err == nil {
			t.Errorf("ParsePattern(%q) accepted", bad)
		}
	}
}

func TestPatternFormatRoundTrip(t *testing.T) {
	p := Pattern{Wild(), At(0, 3), Wild(), At(1, 1), Wild()}
	names := map[int]string{0: "lobby", 1: "lab"}
	s := p.Format(func(id int) string { return names[id] })
	if s != "? lobby[3] ? lab ?" {
		t.Errorf("Format = %q", s)
	}
	if !strings.Contains(p.String(), "L0[3]") {
		t.Errorf("String = %q", p.String())
	}
	resolve := func(name string) (int, error) {
		for id, n := range names {
			if n == name {
				return id, nil
			}
		}
		return 0, fmt.Errorf("unknown %q", name)
	}
	back, err := ParsePattern(s, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format(func(id int) string { return names[id] }) != s {
		t.Errorf("round trip failed: %v", back)
	}
}

// FuzzParsePattern checks the pattern parser on arbitrary input: it never
// panics, every pattern it accepts is valid, and formatting an accepted
// pattern with the same names parses back to the same pattern.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{
		"? lobby[3] ? lab ?", "? lab ?", "? mars ?", "? F0.L1[10] ?",
		"? lab[100000] ?", "lab[1000000000]", "lab[+3] lab[01]",
		"", "lobby[", "lobby[0]", "lobby[x]", "[3]", "nowhere",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Any name resolves to the next free id, except two that are
		// unknown; names holds the inverse for Format.
		ids := map[string]int{}
		var names []string
		resolve := func(name string) (int, error) {
			if name == "nowhere" || name == "mars" {
				return 0, fmt.Errorf("unknown location %q", name)
			}
			id, ok := ids[name]
			if !ok {
				id = len(names)
				ids[name] = id
				names = append(names, name)
			}
			return id, nil
		}
		p, err := ParsePattern(s, resolve)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePattern(%q) accepted an invalid pattern: %v", s, err)
		}
		text := p.Format(func(id int) string { return names[id] })
		back, err := ParsePattern(text, resolve)
		if err != nil {
			t.Fatalf("formatted pattern %q (from %q) does not parse: %v", text, s, err)
		}
		if !slices.Equal(back, p) {
			t.Fatalf("%q parsed to %v, formatted %q parsed back to %v", s, p, text, back)
		}
	})
}

func TestPatternValidateAndMinDuration(t *testing.T) {
	if err := (Pattern{}).Validate(); err == nil {
		t.Errorf("empty pattern valid")
	}
	if err := (Pattern{{Loc: 0, MinLen: 0}}).Validate(); err == nil {
		t.Errorf("zero run length valid")
	}
	p := Pattern{Wild(), At(0, 3), Wild(), At(1, 2)}
	if p.MinDuration() != 5 {
		t.Errorf("MinDuration = %d", p.MinDuration())
	}
}

func TestAccuracyHelpers(t *testing.T) {
	dist := []float64{0.2, 0.7, 0.1}
	if StayAccuracy(dist, 1) != 0.7 {
		t.Errorf("StayAccuracy wrong")
	}
	if StayAccuracy(dist, 5) != 0 || StayAccuracy(dist, -1) != 0 {
		t.Errorf("out-of-range StayAccuracy wrong")
	}
	if TrajectoryAccuracy(0.8, true) != 0.8 {
		t.Errorf("TrajectoryAccuracy(yes) wrong")
	}
	if math.Abs(TrajectoryAccuracy(0.8, false)-0.2) > 1e-12 {
		t.Errorf("TrajectoryAccuracy(no) wrong")
	}
}

func TestRandomPattern(t *testing.T) {
	rng := stats.NewRNG(1)
	locs := []int{3, 5, 9}
	for trial := 0; trial < 200; trial++ {
		anchors := rng.IntRange(2, 4)
		p := RandomPattern(rng, locs, anchors)
		if len(p) != 2*anchors+1 {
			t.Fatalf("pattern length %d for %d anchors", len(p), anchors)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, c := range p {
			if i%2 == 0 {
				if !c.Wildcard {
					t.Fatalf("position %d should be a wildcard: %v", i, p)
				}
				continue
			}
			found := false
			for _, l := range locs {
				if c.Loc == l {
					found = true
				}
			}
			if !found {
				t.Fatalf("anchor location %d not among candidates", c.Loc)
			}
			okLen := c.MinLen == 1 || c.MinLen == 3 || c.MinLen == 5 || c.MinLen == 7 || c.MinLen == 9
			if !okLen {
				t.Fatalf("anchor run length %d unexpected", c.MinLen)
			}
		}
	}
	// Degenerate inputs.
	if p := RandomPattern(rng, nil, 2); len(p) != 1 || !p[0].Wildcard {
		t.Errorf("degenerate RandomPattern = %v", p)
	}
}
