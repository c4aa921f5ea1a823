package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// encoded returns g's Encode bytes.
func encoded(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pathBits maps every source-to-target path of g, keyed by its location
// sequence, to the bits of its probability.
func pathBits(t *testing.T, g *Graph) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	err := g.WalkPaths(1<<20, func(path []int, p float64) {
		k := TrajectoryKey(g.pathLocations(path))
		if _, dup := out[k]; dup {
			t.Fatalf("two paths spell trajectory %s", k)
		}
		out[k] = math.Float64bits(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkQuotient asserts the quotient contract between g and q = g.Quotient():
// well-formed, no larger, the same trajectories with bit-identical
// probabilities, bit-identical best paths, marginals within 1e-12, and a
// fixed point of Quotient.
func checkQuotient(t *testing.T, g, q *Graph, numLocs int) {
	t.Helper()
	if err := q.CheckInvariants(1e-9); err != nil {
		t.Fatalf("quotient invariants: %v", err)
	}
	gs, qs := g.Stats(), q.Stats()
	if qs.Nodes > gs.Nodes || qs.Edges > gs.Edges || qs.Bytes > gs.Bytes {
		t.Fatalf("quotient %+v is larger than the graph %+v", qs, gs)
	}
	want, got := pathBits(t, g), pathBits(t, q)
	if len(want) != len(got) {
		t.Fatalf("graph has %d trajectories, quotient %d", len(want), len(got))
	}
	for k, p := range want {
		if got[k] != p {
			t.Fatalf("P(%s): graph %x, quotient %x", k, p, got[k])
		}
	}
	wb, wp := g.MostProbable()
	_, gp := q.MostProbable()
	if math.Float64bits(wp) != math.Float64bits(gp) {
		t.Fatalf("most probable %v: graph %x, quotient %x", wb, math.Float64bits(wp), math.Float64bits(gp))
	}
	_, wk := g.TopK(5)
	_, gk := q.TopK(5)
	if len(wk) != len(gk) {
		t.Fatalf("top-k: graph %d, quotient %d", len(wk), len(gk))
	}
	for i := range wk {
		if math.Float64bits(wk[i]) != math.Float64bits(gk[i]) {
			t.Fatalf("top-k %d: graph %x, quotient %x", i, math.Float64bits(wk[i]), math.Float64bits(gk[i]))
		}
	}
	wm, err := g.Marginals(numLocs)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := q.Marginals(numLocs)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range wm {
		for l := range wm[tt] {
			if math.Abs(wm[tt][l]-gm[tt][l]) > 1e-12 {
				t.Fatalf("marginal (t=%d, loc=%d): graph %v, quotient %v", tt, l, wm[tt][l], gm[tt][l])
			}
		}
	}
	if !bytes.Equal(encoded(t, q.Quotient()), encoded(t, q)) {
		t.Fatal("the quotient of a quotient differs from it")
	}
}

// TestPropertyQuotientMatchesOracle checks the quotient of every consistent
// random scenario, under both end-latency modes, against Build's graph and
// the enumeration oracle, and that the pass leaves Build's graph untouched.
// Build with Options.Quotient fails exactly when Build does and otherwise
// encodes like the quotient byte for byte.
func TestPropertyQuotientMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(20140326)
	const trials = 1500
	checked, merged := 0, 0
	for trial := 0; trial < trials; trial++ {
		ls, ic := randomScenario(rng)
		for _, mode := range []constraints.EndLatencyMode{constraints.StrictEnd, constraints.LenientEnd} {
			g, err := Build(ls, ic, &Options{EndLatency: mode})
			served, servedErr := Build(ls, ic, &Options{EndLatency: mode, Quotient: true})
			if (err == nil) != (servedErr == nil) {
				t.Fatalf("trial %d (%v): build err %v, quotient build err %v", trial, mode, err, servedErr)
			}
			if errors.Is(err, ErrNoValidTrajectory) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			before := encoded(t, g)
			q := g.Quotient()
			if !bytes.Equal(encoded(t, g), before) {
				t.Fatalf("trial %d: Quotient modified the graph", trial)
			}
			checkQuotient(t, g, q, 4)
			if !bytes.Equal(encoded(t, served), encoded(t, q)) {
				t.Fatalf("trial %d (%v): served quotient build differs from the quotient of the build", trial, mode)
			}
			oracle, err := EnumerateConditioned(ls, ic, mode, 1<<20)
			if err != nil {
				t.Fatalf("trial %d: oracle: %v", trial, err)
			}
			got, err := q.conditionedDistribution(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.Distribution()
			if len(got) != len(want) {
				t.Fatalf("trial %d (%v): quotient has %d trajectories, oracle %d", trial, mode, len(got), len(want))
			}
			for k, p := range want {
				if math.Abs(got[k]-p) > 1e-9 {
					t.Fatalf("trial %d (%v): P(%s) = %v, oracle %v", trial, mode, k, got[k], p)
				}
			}
			checked++
			if q.Stats().Nodes < g.Stats().Nodes {
				merged++
			}
		}
	}
	if checked < trials/4 || merged == 0 {
		t.Fatalf("checked %d scenario-modes, %d merged a node: generator too weak", checked, merged)
	}
}

// TestQuotientOfSmoothEqualsQuotientOfBuild: the quotient of an incremental
// smooth encodes byte for byte like the quotient of a full build over the
// same prefix, at every 17th prefix of a long TT-heavy stream and at the
// end of random scenarios in both end-latency modes.
func TestQuotientOfSmoothEqualsQuotientOfBuild(t *testing.T) {
	same := func(what string, st *BuildState, ls *LSequence, ic *constraints.Set, mode constraints.EndLatencyMode) {
		t.Helper()
		opts := &Options{EndLatency: mode}
		smoothed, sErr := st.Smooth(opts)
		built, bErr := Build(ls, ic, opts)
		if (sErr == nil) != (bErr == nil) {
			t.Fatalf("%s: smooth err %v, build err %v", what, sErr, bErr)
		}
		if bErr == nil && !bytes.Equal(encoded(t, smoothed.Quotient()), encoded(t, built.Quotient())) {
			t.Fatalf("%s: quotient of the smooth differs from the quotient of the build", what)
		}
	}
	ls, ic := benchScenario()
	st := NewBuildState(ic)
	for k, step := range ls.Steps {
		if err := st.Observe(step.Candidates); err != nil {
			t.Fatal(err)
		}
		if k%17 == 0 || k == ls.Duration()-1 {
			same("bench prefix", st, prefixLS(ls, k+1), ic, constraints.LenientEnd)
		}
	}
	rng := stats.NewRNG(20140327)
	for trial := 0; trial < 400; trial++ {
		ls, ic := randomScenario(rng)
		st := NewBuildState(ic)
		alive := true
		for _, step := range ls.Steps {
			if st.Observe(step.Candidates) != nil {
				alive = false
				break
			}
		}
		if alive {
			same("random scenario", st, ls, ic, constraints.StrictEnd)
			same("random scenario", st, ls, ic, constraints.LenientEnd)
		}
	}
}

// TestQuotientEncoding: the quotient of a TT-heavy graph is smaller, carries
// no stay counters or TL entries in its encoding, and decodes to a graph
// that re-encodes to the same bytes.
func TestQuotientEncoding(t *testing.T) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Quotient()
	if gs, qs := g.Stats(), q.Stats(); qs.Nodes >= gs.Nodes || qs.Edges >= gs.Edges {
		t.Fatalf("quotient %+v does not shrink the graph %+v", qs, gs)
	}
	raw := encoded(t, q)
	for _, field := range []string{`"stay"`, `"tl"`} {
		if bytes.Contains(raw, []byte(field)) {
			t.Fatalf("quotient encoding carries %s", field)
		}
	}
	back, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, back), raw) {
		t.Fatal("decoded quotient re-encodes differently")
	}
	if (&Graph{}).Quotient().Duration() != 0 {
		t.Fatal("quotient of an empty graph is not empty")
	}
}

// TestBuildQuotientOption: Build with Options.Quotient returns the quotient
// of the graph Build returns without it, byte for byte, while the arena
// blocks of earlier quotient builds are reused by later ones, including
// concurrent ones. Its explain report describes the dominance-rule graph it
// built: the same counters on every run, prune counters that sum to the
// considered−accepted gap, and no more nodes built at any step than without
// the option. Smooth with the option returns the same bytes.
func TestBuildQuotientOption(t *testing.T) {
	type scenario struct {
		ls *LSequence
		ic *constraints.Set
	}
	const mode = constraints.LenientEnd
	rng := stats.NewRNG(20140328)
	var scenarios []scenario
	for i := 0; i < 300; i++ {
		ls, ic := randomScenario(rng)
		scenarios = append(scenarios, scenario{ls, ic})
	}
	ls, ic := benchScenario()
	scenarios = append(scenarios, scenario{ls, ic}, scenario{prefixLS(ls, 60), ic})
	want := make([][]byte, len(scenarios))
	wantEx := make([]BuildExplain, len(scenarios))
	for i, sc := range scenarios {
		var exRaw BuildExplain
		g, err := Build(sc.ls, sc.ic, &Options{EndLatency: mode, Explain: &exRaw})
		if err != nil {
			continue
		}
		want[i] = encoded(t, g.Quotient())
		if _, err := Build(sc.ls, sc.ic, &Options{EndLatency: mode, Explain: &wantEx[i], Quotient: true}); err != nil {
			t.Fatalf("scenario %d: quotient build: %v", i, err)
		}
		var gap int64
		for s, step := range wantEx[i].Steps {
			if step.NodesBuilt > exRaw.Steps[s].NodesBuilt {
				t.Fatalf("scenario %d step %d: %d nodes built, %d without the option", i, s, step.NodesBuilt, exRaw.Steps[s].NodesBuilt)
			}
			gap += int64(step.Considered - step.Accepted)
		}
		if pruned := wantEx[i].PrunedTotal(); pruned != gap {
			t.Fatalf("scenario %d: prune counters sum to %d, considered-accepted gap is %d", i, pruned, gap)
		}
	}
	check := func(i int) error {
		var ex BuildExplain
		got, err := Build(scenarios[i].ls, scenarios[i].ic, &Options{EndLatency: mode, Explain: &ex, Quotient: true})
		if (err == nil) != (want[i] != nil) {
			return fmt.Errorf("scenario %d: quotient build err %v", i, err)
		}
		if err != nil {
			return nil
		}
		var buf bytes.Buffer
		if err := got.Encode(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), want[i]) {
			return fmt.Errorf("scenario %d: quotient build differs from the quotient of the build", i)
		}
		ref := &wantEx[i]
		if ex.PrunedDU != ref.PrunedDU || ex.PrunedLT != ref.PrunedLT || ex.PrunedTT != ref.PrunedTT ||
			ex.BackwardRemoved != ref.BackwardRemoved || len(ex.Steps) != len(ref.Steps) {
			return fmt.Errorf("scenario %d: explain %+v, first run %+v", i, ex, *ref)
		}
		for s := range ex.Steps {
			if ex.Steps[s] != ref.Steps[s] {
				return fmt.Errorf("scenario %d: explain step %d: %+v, first run %+v", i, s, ex.Steps[s], ref.Steps[s])
			}
		}
		return nil
	}
	for round := 0; round < 2; round++ {
		for i := range scenarios {
			if err := check(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(scenarios); i += len(errs) {
				if err := check(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := NewBuildState(ic)
	for _, step := range ls.Steps {
		if err := st.Observe(step.Candidates); err != nil {
			t.Fatal(err)
		}
	}
	smoothed, err := st.Smooth(&Options{EndLatency: constraints.LenientEnd, Quotient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, smoothed), want[len(scenarios)-2]) {
		t.Fatal("quotient smooth differs from the quotient of the build")
	}
}
