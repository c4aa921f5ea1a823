package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// FuzzQuotientDominance: on any scenario, in both end modes and at every
// prefix, the two builds that drop dominated TL entries — Build with
// Options.Quotient and the Smooth of a state from NewQuotientBuildState, made
// without asking for a quotient — fail exactly when Build does and otherwise
// encode byte for byte like Build(…).Quotient(), which keeps every entry
// Algorithm 1 keeps. The quotient state's filtered distribution agrees with
// a raw state's within rounding.
func FuzzQuotientDominance(f *testing.F) {
	rng := stats.NewRNG(20140401)
	for i := 0; i < 32; i++ {
		ls, ic := randomScenario(rng)
		f.Add(scenarioBytes(ls, ic, nil))
	}
	f.Add([]byte{3, 2, 6, 2, 10, 0, 14, 0, 2, 0, 1, 7, 255, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		ls, ic, _, _ := fuzzScenario(data)
		for _, mode := range []constraints.EndLatencyMode{constraints.StrictEnd, constraints.LenientEnd} {
			checkQuotientDominance(t, ls, ic, mode)
		}
	})
}

func checkQuotientDominance(t *testing.T, ls *LSequence, ic *constraints.Set, mode constraints.EndLatencyMode) {
	st, raw := NewQuotientBuildState(ic), NewBuildState(ic)
	defer st.Release()
	defer raw.Release()
	for k, step := range ls.Steps {
		prefix := prefixLS(ls, k+1)
		g, err := Build(prefix, ic, &Options{EndLatency: mode})
		if oErr := st.Observe(step.Candidates); oErr != nil {
			if !errors.Is(oErr, ErrNoValidTrajectory) || !errors.Is(err, ErrNoValidTrajectory) {
				t.Fatalf("%v prefix %d: observe %v, Build %v", mode, k+1, oErr, err)
			}
			return
		}
		if err := raw.Observe(step.Candidates); err != nil {
			t.Fatalf("%v prefix %d: the raw state failed where the quotient state did not: %v", mode, k+1, err)
		}
		checkFiltered(t, st, raw)
		q, qErr := Build(prefix, ic, &Options{EndLatency: mode, Quotient: true})
		s, sErr := st.Smooth(&Options{EndLatency: mode})
		if (err == nil) != (qErr == nil) || (err == nil) != (sErr == nil) {
			t.Fatalf("%v prefix %d: build err %v, quotient build err %v, smooth err %v", mode, k+1, err, qErr, sErr)
		}
		if err != nil {
			continue
		}
		want := encoded(t, g.Quotient())
		if !bytes.Equal(encoded(t, q), want) {
			t.Fatalf("%v prefix %d: quotient build differs from the quotient of the build", mode, k+1)
		}
		if !bytes.Equal(encoded(t, s), want) {
			t.Fatalf("%v prefix %d: quotient session's smooth differs from the quotient of the build", mode, k+1)
		}
	}
}

// checkFiltered compares the filtered distributions of two states that
// observed the same readings.
func checkFiltered(t *testing.T, got, want *BuildState) {
	t.Helper()
	g, err := got.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	byLoc := make(map[int]float64, len(w))
	for _, lp := range w {
		byLoc[lp.Loc] = lp.P
	}
	if len(g) != len(w) {
		t.Fatalf("filtered support: got %v, want %v", g, w)
	}
	for _, lp := range g {
		if p, ok := byLoc[lp.Loc]; !ok || math.Abs(p-lp.P) > 1e-12 {
			t.Fatalf("filtered distribution: got %v, want %v", g, w)
		}
	}
}

// TestQuotientStateDropsDominated: on a long stream a quotient-only session
// keeps fewer raw nodes than a raw one, its smooths encode like the raw
// session's quotient, and releasing it clears the rule from its kernel.
func TestQuotientStateDropsDominated(t *testing.T) {
	steps, ic := soakScenario(t, 400)
	st, raw := NewQuotientBuildState(ic), NewBuildState(ic)
	defer raw.Release()
	opts := &Options{EndLatency: constraints.LenientEnd, Quotient: true}
	for k, cands := range steps {
		if err := st.Observe(cands); err != nil {
			t.Fatal(err)
		}
		if err := raw.Observe(cands); err != nil {
			t.Fatal(err)
		}
		if (k+1)%100 != 0 {
			continue
		}
		got, err := st.Smooth(&Options{EndLatency: constraints.LenientEnd})
		if err != nil {
			t.Fatal(err)
		}
		want, err := raw.Smooth(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("after %d readings the quotient session's smooth differs from the raw session's quotient", k+1)
		}
	}
	nodes := func(st *BuildState) int {
		n := 0
		for _, level := range st.levels {
			n += len(level)
		}
		return n
	}
	if kept, all := nodes(st), nodes(raw); kept >= all {
		t.Errorf("the quotient session keeps %d raw nodes, the raw session %d", kept, all)
	}
	k := st.kernel
	st.Release()
	if k.b.dominate {
		t.Error("a released kernel still drops dominated entries")
	}
}
