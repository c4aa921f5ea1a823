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
// Options.Quotient and the Smooth of a state from NewBuildState, made
// without asking for a quotient — fail exactly when Build does and otherwise
// encode byte for byte like Build(…).Quotient(), which keeps every entry
// Algorithm 1 keeps. Both run one forward rule, so their explain reports
// agree field by field. The quotient state's filtered distribution agrees
// with a raw state's within rounding.
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
	st, raw := NewBuildState(ic), newBuildState(ic, false)
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
		var exQ, exS BuildExplain
		q, qErr := Build(prefix, ic, &Options{EndLatency: mode, Quotient: true, Explain: &exQ})
		s, sErr := st.Smooth(&Options{EndLatency: mode, Explain: &exS})
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
		if err := explainsAgree(&exS, &exQ); err != nil {
			t.Fatalf("%v prefix %d: quotient session's smooth explains unlike the quotient build: %v", mode, k+1, err)
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
	st, raw := NewBuildState(ic), newBuildState(ic, false)
	defer raw.Release()
	opts := &Options{EndLatency: constraints.LenientEnd}
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
		got, err := st.Smooth(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := raw.Smooth(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, got), encoded(t, want.Quotient())) {
			t.Fatalf("after %d readings the quotient session's smooth differs from the raw session's quotient", k+1)
		}
	}
	if kept, all := len(st.b.g.loc), len(raw.b.g.loc); kept >= all {
		t.Errorf("the quotient session keeps %d raw nodes, the raw session %d", kept, all)
	}
	k := st.kernel
	st.Release()
	if k.b.dominate {
		t.Error("a released kernel still drops dominated entries")
	}
}

// fuzzScenario decodes a small scenario from data, reading zeros once data
// runs out: up to 5 constrained locations plus 2 candidate locations beyond
// the compiled constraint range, up to 8 timestamps, random DU, LT (minimum
// stay from 1) and TT (ν from 1) constraints, and the end-latency mode. It
// also returns the bytes it did not read.
func fuzzScenario(data []byte) (*LSequence, *constraints.Set, constraints.EndLatencyMode, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	numLocs := 2 + next()%4
	ic := constraints.NewSet()
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i == j {
				continue
			}
			switch b := next(); b % 4 {
			case 1:
				ic.AddDU(i, j)
			case 2:
				if err := ic.AddTT(i, j, 1+b/4%5); err != nil {
					panic(err)
				}
			}
		}
		ic.AddLT(i, 1+next()%3)
	}
	mode := constraints.LenientEnd
	if next()%2 == 1 {
		mode = constraints.StrictEnd
	}
	duration := 1 + next()%8
	dists := make([][]float64, duration)
	for t := range dists {
		row := make([]float64, numLocs+2)
		mask := next()
		for loc := range row {
			if mask&(1<<loc) != 0 {
				row[loc] = float64(1 + next()%8)
			}
		}
		if mask&(1<<len(row)-1) == 0 {
			row[t%len(row)] = 1
		}
		total := 0.0
		for _, w := range row {
			total += w
		}
		for loc := range row {
			row[loc] /= total
		}
		dists[t] = row
	}
	return FromDistributions(dists), ic, mode, data
}

// scenarioBytes encodes a randomScenario in fuzzScenario's format, for a
// seed: candidate weights are quantized to 1..8, and a pair with both a DU
// and a TT constraint keeps the DU. schedule is appended after it.
func scenarioBytes(ls *LSequence, ic *constraints.Set, schedule []byte) []byte {
	numLocs := max(2, ls.NumLocations())
	data := []byte{byte(numLocs - 2)}
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i == j {
				continue
			}
			b := byte(0)
			if ic.Unreachable(i, j) {
				b = 1
			} else if nu, ok := ic.TT(i, j); ok {
				b = byte(2 + 4*((nu-1)%5))
			}
			data = append(data, b)
		}
		minStay, _ := ic.Latency(i)
		data = append(data, byte(max(minStay, 1)-1))
	}
	data = append(data, 0, byte(ls.Duration()-1))
	for _, step := range ls.Steps {
		mask, weights := 0, []byte(nil)
		for _, c := range step.Candidates { // in location order, as FromDistributions lists them
			mask |= 1 << c.Loc
			weights = append(weights, byte(min(max(int(c.P*8), 1), 8)-1))
		}
		data = append(append(data, byte(mask)), weights...)
	}
	return append(data, schedule...)
}

// FuzzBuildQuotient: on any scenario Build with Options.Quotient, which
// drops dominated TL entries, fails exactly when Build does, and
// otherwise encodes byte for byte like the quotient of Build's graph and
// satisfies the ct-graph invariants.
func FuzzBuildQuotient(f *testing.F) {
	rng := stats.NewRNG(20140330)
	for i := 0; i < 32; i++ {
		seed := make([]byte, 64)
		for j := range seed {
			seed[j] = byte(rng.Intn(256))
		}
		f.Add(seed)
	}
	f.Add([]byte{3, 2, 6, 2, 10, 0, 14, 0, 2, 0, 1, 7, 255, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		ls, ic, mode, _ := fuzzScenario(data)
		g, err := Build(ls, ic, &Options{EndLatency: mode})
		got, gotErr := Build(ls, ic, &Options{EndLatency: mode, Quotient: true})
		if (err == nil) != (gotErr == nil) {
			t.Fatalf("build err %v, quotient build err %v", err, gotErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encoded(t, got), encoded(t, g.Quotient())) {
			t.Fatal("quotient build differs from the quotient of the build")
		}
		if err := got.CheckInvariants(1e-9); err != nil {
			t.Fatalf("quotient build invariants: %v", err)
		}
	})
}
