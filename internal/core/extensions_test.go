package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// TestFilterMatchesGraphAtEveryPrefix: the filtered distribution a
// BuildState answers after t+1 observations equals the final-timestamp
// marginal of a ct-graph built on the first t+1 steps (lenient semantics),
// for random scenarios.
func TestFilterMatchesGraphAtEveryPrefix(t *testing.T) {
	rng := stats.NewRNG(555)
	for trial := 0; trial < 200; trial++ {
		ls, ic := randomScenario(rng)
		numLoc := ls.NumLocations()
		st := NewBuildState(ic)
		for step := 0; step < ls.Duration(); step++ {
			err := st.Observe(ls.Steps[step].Candidates)
			prefix := &LSequence{Steps: ls.Steps[:step+1]}
			g, gErr := Build(prefix, ic, &Options{EndLatency: constraints.LenientEnd})
			if errors.Is(gErr, ErrNoValidTrajectory) {
				if !errors.Is(err, ErrNoValidTrajectory) {
					t.Fatalf("trial %d step %d: graph dead but filter alive", trial, step)
				}
				break
			}
			if gErr != nil {
				t.Fatal(gErr)
			}
			if err != nil {
				t.Fatalf("trial %d step %d: filter died but graph alive: %v", trial, step, err)
			}
			got := filtered(t, st, numLoc)
			marg, err := g.Marginals(numLoc)
			if err != nil {
				t.Fatal(err)
			}
			want := marg[step]
			for loc := range want {
				if math.Abs(got[loc]-want[loc]) > 1e-9 {
					t.Fatalf("trial %d step %d loc %d: filter %v, graph %v",
						trial, step, loc, got[loc], want[loc])
				}
			}
			if st.Time() != step {
				t.Fatalf("Time() = %d, want %d", st.Time(), step)
			}
		}
	}
}

// TestFilterMostLikelyAndErrors: the frontier queries refuse an empty state
// and bad candidates, and TopLocations(1) is the most likely location.
func TestFilterMostLikelyAndErrors(t *testing.T) {
	st := NewBuildState(nil)
	if _, err := st.Distribution(); err == nil {
		t.Errorf("Distribution before Observe accepted")
	}
	if _, err := st.TopLocations(1); err == nil {
		t.Errorf("TopLocations before Observe accepted")
	}
	if err := st.Observe(nil); err == nil {
		t.Errorf("empty candidates accepted")
	}
	if err := st.Observe([]Candidate{{Loc: -1, P: 1}}); err == nil {
		t.Errorf("bad candidate accepted")
	}
	if err := st.Observe([]Candidate{{Loc: 0, P: 0.3}, {Loc: 1, P: 0.7}}); err != nil {
		t.Fatal(err)
	}
	top, err := st.TopLocations(1)
	if err != nil || len(top) != 1 || top[0].Loc != 1 || math.Abs(top[0].P-0.7) > 1e-12 {
		t.Errorf("TopLocations(1) = %v %v", top, err)
	}
	if st.FrontierSize() != 2 {
		t.Errorf("FrontierSize = %d", st.FrontierSize())
	}
}

// TestFilterDeadEnd: a move the constraints rule out fails with
// ErrNoValidTrajectory and empties the frontier.
func TestFilterDeadEnd(t *testing.T) {
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	st := NewBuildState(ic)
	if err := st.Observe([]Candidate{{Loc: 0, P: 1}}); err != nil {
		t.Fatal(err)
	}
	err := st.Observe([]Candidate{{Loc: 1, P: 1}})
	if !errors.Is(err, ErrNoValidTrajectory) {
		t.Errorf("err = %v", err)
	}
	if st.FrontierSize() != 0 || st.Time() != 0 {
		t.Errorf("after the dead end: frontier %d, time %d; want 0, 0", st.FrontierSize(), st.Time())
	}
}

func TestTopKAgainstEnumeration(t *testing.T) {
	rng := stats.NewRNG(808)
	for trial := 0; trial < 200; trial++ {
		ls, ic := randomScenario(rng)
		g, err := Build(ls, ic, nil)
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		dist, err := g.conditionedDistribution(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		for _, p := range dist {
			want = append(want, p)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))

		k := rng.IntRange(1, 5)
		trajs, probs := g.TopK(k)
		if len(trajs) != len(probs) {
			t.Fatalf("trial %d: mismatched lengths", trial)
		}
		if len(trajs) > k {
			t.Fatalf("trial %d: more than k results", trial)
		}
		wantLen := k
		if len(want) < k {
			wantLen = len(want)
		}
		if len(trajs) != wantLen {
			t.Fatalf("trial %d: got %d trajectories, want %d", trial, len(trajs), wantLen)
		}
		seen := map[string]bool{}
		for i := range trajs {
			if i > 0 && probs[i] > probs[i-1]+1e-12 {
				t.Fatalf("trial %d: probabilities not descending", trial)
			}
			if math.Abs(probs[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: probs[%d] = %v, want %v", trial, i, probs[i], want[i])
			}
			key := TrajectoryKey(trajs[i])
			if seen[key] {
				t.Fatalf("trial %d: duplicate trajectory %s", trial, key)
			}
			seen[key] = true
			if math.Abs(dist[key]-probs[i]) > 1e-9 {
				t.Fatalf("trial %d: trajectory %s has prob %v, claimed %v",
					trial, key, dist[key], probs[i])
			}
		}
		// Top-1 agrees with Viterbi.
		_, vp := g.MostProbable()
		if math.Abs(probs[0]-vp) > 1e-9 {
			t.Fatalf("trial %d: TopK(1) %v != Viterbi %v", trial, probs[0], vp)
		}
	}
}

func TestTopKDegenerate(t *testing.T) {
	g := mustBuild(t, FromDistributions([][]float64{{1}}))
	if tr, _ := g.TopK(0); tr != nil {
		t.Errorf("TopK(0) returned results")
	}
	tr, p := g.TopK(5)
	if len(tr) != 1 || p[0] != 1 {
		t.Errorf("TopK(5) on singleton = %v %v", tr, p)
	}
}

// TestDecoderEdgeContract pins the one decoder's edges on hand-built
// graphs. Among equally probable paths, MostProbable and TopK return them
// in push order (sources, then nodes and arcs in index order), which is
// neither the lowest nor the highest location sequence first. When every path
// underflows to probability 0, MostProbable returns (nil, 0).
func TestDecoderEdgeContract(t *testing.T) {
	// Two sources, each with an arc of 1/2 into each of two targets: four
	// paths of probability 1/4 each.
	tie := &Graph{
		levelOff: []int32{0, 2, 4},
		loc:      []int32{5, 1, 2, 7},
		arcOff:   []int32{0, 2, 4, 4, 4},
		to:       []int32{0, 1, 0, 1},
		p:        []float64{0.5, 0.5, 0.5, 0.5},
		src:      []float64{0.5, 0.5},
	}
	if err := tie.CheckInvariants(1e-12); err != nil {
		t.Fatal(err)
	}
	want := []int{5, 2}
	if locs, p := tie.MostProbable(); !slices.Equal(locs, want) || p != 0.25 {
		t.Errorf("MostProbable = %v %v, want %v 0.25", locs, p, want)
	}
	if trajs, probs := tie.TopK(1); len(trajs) != 1 || !slices.Equal(trajs[0], want) || probs[0] != 0.25 {
		t.Errorf("TopK(1) = %v %v, want [%v] [0.25]", trajs, probs, want)
	}
	all := [][]int{{5, 2}, {1, 2}, {5, 7}, {1, 7}}
	if trajs, _ := tie.TopK(4); !slices.EqualFunc(trajs, all, slices.Equal[[]int]) {
		t.Errorf("TopK(4) = %v, want %v", trajs, all)
	}
	// A k far past the graph's four paths allocates no slot per unit of k.
	if trajs, _ := tie.TopK(math.MaxInt); !slices.EqualFunc(trajs, all, slices.Equal[[]int]) {
		t.Errorf("TopK(MaxInt) = %v, want %v", trajs, all)
	}

	// 1,100 levels of two nodes, every arc 1/2: each path has probability
	// 2^-1100, below the smallest subnormal, while every level's mass stays 1.
	const levels = 1100
	deep := &Graph{
		levelOff: make([]int32, levels+1),
		loc:      make([]int32, 2*levels),
		arcOff:   make([]int32, 2*levels+1),
		src:      []float64{0.5, 0.5},
	}
	for t := range deep.levelOff {
		deep.levelOff[t] = int32(2 * t)
	}
	for n := range deep.loc {
		deep.loc[n] = int32(n % 2)
		deep.arcOff[n+1] = deep.arcOff[n]
		if n < 2*(levels-1) {
			deep.arcOff[n+1] += 2
			deep.to = append(deep.to, 0, 1)
			deep.p = append(deep.p, 0.5, 0.5)
		}
	}
	if err := deep.CheckInvariants(1e-12); err != nil {
		t.Fatal(err)
	}
	if locs, p := deep.MostProbable(); locs != nil || p != 0 {
		t.Errorf("MostProbable on an underflowing graph = %v %v, want nil 0", locs, p)
	}
}

func mustBuild(t *testing.T, ls *LSequence) *Graph {
	t.Helper()
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := stats.NewRNG(606)
	for trial := 0; trial < 100; trial++ {
		ls, ic := randomScenario(rng)
		g, err := Build(ls, ic, nil)
		if errors.Is(err, ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.Duration() != g.Duration() {
			t.Fatalf("duration changed")
		}
		want, err := g.conditionedDistribution(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.conditionedDistribution(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: distribution size changed", trial)
		}
		for k, p := range want {
			if math.Abs(got[k]-p) > 1e-9 {
				t.Fatalf("trial %d: P(%s) changed: %v vs %v", trial, k, got[k], p)
			}
		}
		a, b := g.Stats(), back.Stats()
		if a.Nodes != b.Nodes || a.Edges != b.Edges {
			t.Fatalf("stats changed: %+v vs %+v", a, b)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"bad version":   `{"version":99,"duration":1,"nodes":[{"time":0,"loc":0,"prob":1}],"edges":[]}`,
		"zero duration": `{"version":1,"duration":0,"nodes":[],"edges":[]}`,
		"bad node time": `{"version":1,"duration":1,"nodes":[{"time":5,"loc":0,"prob":1}],"edges":[]}`,
		"negative loc":  `{"version":1,"duration":1,"nodes":[{"time":0,"loc":-1,"prob":1}],"edges":[]}`,
		"bad edge ref":  `{"version":1,"duration":1,"nodes":[{"time":0,"loc":0,"prob":1}],"edges":[{"from":0,"to":9,"p":1}]}`,
		"non-consecutive edge": `{"version":1,"duration":2,` +
			`"nodes":[{"time":0,"loc":0,"prob":1},{"time":0,"loc":1},{"time":1,"loc":0}],` +
			`"edges":[{"from":0,"to":1,"p":1}]}`,
		"violates invariants": `{"version":1,"duration":2,` +
			`"nodes":[{"time":0,"loc":0,"prob":1},{"time":1,"loc":0}],"edges":[]}`,
		"loc beyond int32":  `{"version":1,"duration":1,"nodes":[{"time":0,"loc":2147483648,"prob":1}],"edges":[]}`,
		"stay beyond int32": `{"version":1,"duration":1,"nodes":[{"time":0,"loc":0,"stay":4294967296,"prob":1}],"edges":[]}`,
		"prob off level 0": `{"version":1,"duration":2,` +
			`"nodes":[{"time":0,"loc":0,"prob":1},{"time":1,"loc":0,"prob":0.5}],"edges":[{"from":0,"to":1,"p":1}]}`,
	}
	for name, body := range cases {
		if _, err := Decode(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
