package rfidclean_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	rfidclean "repro"
)

// demoSystem builds a small public-API-only deployment: two rooms joined to
// a corridor, one reader per location.
func demoSystem(t testing.TB) *rfidclean.System {
	t.Helper()
	b := rfidclean.NewMapBuilder()
	cor := b.AddLocation("corridor", rfidclean.Corridor, 0, rfidclean.RectWH(0, 0, 12, 3))
	lab := b.AddLocation("lab", rfidclean.Room, 0, rfidclean.RectWH(0, 3, 6, 5))
	office := b.AddLocation("office", rfidclean.Room, 0, rfidclean.RectWH(6, 3, 6, 5))
	b.AddDoor(cor, lab, rfidclean.Pt(3, 3), 1)
	b.AddDoor(cor, office, rfidclean.Pt(9, 3), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	readers := []rfidclean.Reader{
		{ID: 0, Name: "r-lab", Floor: 0, Pos: rfidclean.Pt(3, 5.5)},
		{ID: 1, Name: "r-office", Floor: 0, Pos: rfidclean.Pt(9, 5.5)},
		{ID: 2, Name: "r-cor", Floor: 0, Pos: rfidclean.Pt(6, 1.5)},
	}
	sys, err := rfidclean.NewSystem(plan, readers, rfidclean.DefaultThreeState(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sys.CalibratePrior(30, rfidclean.NewRNG(7))
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := rfidclean.NewSystem(nil, nil, rfidclean.DefaultThreeState(), 0.5); err == nil {
		t.Errorf("nil plan accepted")
	}
	b := rfidclean.NewMapBuilder()
	b.AddLocation("a", rfidclean.Room, 0, rfidclean.RectWH(0, 0, 4, 4))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rfidclean.NewSystem(plan, nil, rfidclean.DefaultThreeState(), 0.5); err == nil {
		t.Errorf("no readers accepted")
	}
	if _, err := rfidclean.NewSystem(plan, []rfidclean.Reader{{}}, rfidclean.DefaultThreeState(), 0); err == nil {
		t.Errorf("zero cell size accepted")
	}
}

func TestCleanRequiresPrior(t *testing.T) {
	b := rfidclean.NewMapBuilder()
	b.AddLocation("a", rfidclean.Room, 0, rfidclean.RectWH(0, 0, 4, 4))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rfidclean.NewSystem(plan, []rfidclean.Reader{{ID: 0, Pos: rfidclean.Pt(2, 2)}}, rfidclean.DefaultThreeState(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Clean(rfidclean.ReadingSequence{{Time: 0}}, nil, nil); err == nil {
		t.Errorf("Clean without prior accepted")
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Synthesize a ground-truth trajectory and its readings.
	rng := rfidclean.NewRNG(99)
	cfg := rfidclean.NewGeneratorConfig(120)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	if cleaned.Duration() != 120 {
		t.Errorf("Duration = %d", cleaned.Duration())
	}

	// Stay query: distribution sums to 1.
	dist, err := cleaned.StayDistribution(60)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("stay distribution sums to %v", sum)
	}

	loc, p, err := cleaned.MostLikelyAt(60)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 1+1e-9 {
		t.Errorf("MostLikelyAt p = %v", p)
	}
	if loc.Name == "" {
		t.Errorf("MostLikelyAt returned empty location")
	}

	// Viterbi decoding yields a plausible trajectory.
	best, bp := cleaned.MostProbable()
	if len(best) != 120 || bp <= 0 {
		t.Errorf("MostProbable = %d locs, p=%v", len(best), bp)
	}

	// Sampling produces trajectories of the right shape.
	sample := cleaned.Sample(rng)
	if len(sample) != 120 {
		t.Errorf("Sample length = %d", len(sample))
	}

	// Pattern query via names.
	pYes, err := cleaned.Match("? lab ?")
	if err != nil {
		t.Fatal(err)
	}
	if pYes < 0 || pYes > 1+1e-9 {
		t.Errorf("Match probability = %v", pYes)
	}
	if _, err := cleaned.Match("? nowhere ?"); err == nil {
		t.Errorf("unknown location accepted in pattern")
	}

	// Marginals agree with stay queries.
	m, err := cleaned.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	for locID := range dist {
		if math.Abs(m[60][locID]-dist[locID]) > 1e-9 {
			t.Errorf("marginals disagree with stay query at loc %d", locID)
		}
	}

	st := cleaned.Stats()
	if st.Nodes == 0 || st.Edges == 0 || st.Bytes == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if cleaned.Graph() == nil {
		t.Errorf("Graph() is nil")
	}
	if cleaned.LocationName(0) == "?" || cleaned.LocationName(-1) != "?" {
		t.Errorf("LocationName misbehaves")
	}
}

func TestInferConstraintsShape(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	du, lt, tt := ic.Counts()
	if du == 0 {
		t.Errorf("no DU constraints inferred")
	}
	if lt != 2 { // lab and office, not the corridor
		t.Errorf("lt = %d, want 2", lt)
	}
	if tt == 0 {
		t.Errorf("no TT constraints inferred")
	}
	if _, err := sys.InferConstraints(0, 5, 0); err == nil {
		t.Errorf("zero speed accepted")
	}
}

func TestLocationIDAndPattern(t *testing.T) {
	sys := demoSystem(t)
	id, err := sys.LocationID("lab")
	if err != nil {
		t.Fatal(err)
	}
	if name := sys.Plan.Location(id).Name; name != "lab" {
		t.Errorf("LocationID round trip = %q", name)
	}
	if _, err := sys.LocationID("nope"); err == nil {
		t.Errorf("unknown location accepted")
	}
	p, err := sys.ParsePattern("? lab[3] ? office ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.MinDuration() != 4 {
		t.Errorf("MinDuration = %d", p.MinDuration())
	}
	ok, err := rfidclean.MatchesPattern(p, []int{0, id, id, id, 0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	officeID, _ := sys.LocationID("office")
	if ok != (officeID == 2) {
		t.Errorf("MatchesPattern = %v (office id %d)", ok, officeID)
	}
}

func TestErrNoValidTrajectorySurfaces(t *testing.T) {
	sys := demoSystem(t)
	ic := rfidclean.NewConstraintSet()
	// Forbid every transition and every stay: nothing is valid for a
	// 2-step window.
	n := sys.Plan.NumLocations()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ic.AddDU(a, b)
		}
	}
	readings := rfidclean.ReadingSequence{
		{Time: 0, Readers: rfidclean.NewReaderSet(0)},
		{Time: 1, Readers: rfidclean.NewReaderSet(0)},
	}
	_, err := sys.Clean(readings, ic, nil)
	if !errors.Is(err, rfidclean.ErrNoValidTrajectory) {
		t.Errorf("err = %v, want ErrNoValidTrajectory", err)
	}
}

func TestBuildCTGraphDirect(t *testing.T) {
	// The low-level API remains usable without a System.
	ls := &rfidclean.LSequence{}
	if _, err := rfidclean.BuildCTGraph(ls, nil, nil); err == nil {
		t.Errorf("empty l-sequence accepted")
	}
	res, err := rfidclean.EnumerateConditioned(
		demoLSequence(), rfidclean.NewConstraintSet(), rfidclean.StrictEnd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectories) != 4 {
		t.Errorf("oracle trajectories = %d", len(res.Trajectories))
	}
}

func demoLSequence() *rfidclean.LSequence {
	return &rfidclean.LSequence{Steps: []rfidclean.LStep{
		{Candidates: []rfidclean.LCandidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.5}}},
		{Candidates: []rfidclean.LCandidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.5}}},
	}}
}

func TestFacadeExtensions(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rfidclean.NewRNG(17)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(90), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}

	// Top-K: descending, first equals Viterbi.
	trajs, probs := cleaned.TopK(3)
	if len(trajs) == 0 {
		t.Fatal("TopK empty")
	}
	_, vp := cleaned.MostProbable()
	if math.Abs(probs[0]-vp) > 1e-9 {
		t.Errorf("TopK[0] %v != Viterbi %v", probs[0], vp)
	}

	// Expected occupancy sums to the duration.
	occ, err := cleaned.ExpectedOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, o := range occ {
		total += o
	}
	if math.Abs(total-90) > 1e-6 {
		t.Errorf("occupancy sums to %v, want 90", total)
	}

	// Encode / decode round trip preserves stay distributions.
	var buf bytes.Buffer
	if err := cleaned.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rfidclean.DecodeCTGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration() != 90 {
		t.Errorf("decoded duration = %d", back.Duration())
	}

	// The build state tracks the object online.
	st := rfidclean.NewBuildState(ic)
	for _, r := range readings {
		cands, err := sys.Candidates(r.Readers)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(cands); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := st.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	final := make([]float64, sys.Plan.NumLocations())
	for _, lp := range dist {
		final[lp.Loc] = lp.P
	}
	smoothed, err := cleaned.StayDistribution(89)
	if err != nil {
		t.Fatal(err)
	}
	for loc := range final {
		if math.Abs(final[loc]-smoothed[loc]) > 1e-9 {
			t.Errorf("filter and graph disagree at loc %d: %v vs %v", loc, final[loc], smoothed[loc])
		}
	}
}

// TestNewBuildStateSmoothsQuotient: the one public stream constructor is
// the serving session. Its Smooth, without asking for a quotient, encodes
// byte for byte like the quotient of Algorithm 1's graph over the same
// readings, at every prefix it smooths and in both end modes.
func TestNewBuildStateSmoothsQuotient(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rfidclean.NewRNG(19)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(90), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	st := rfidclean.NewBuildState(ic)
	defer st.Release()
	ls := &rfidclean.LSequence{}
	encode := func(g *rfidclean.CTGraph) []byte {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	merged := false
	for k, r := range readings {
		cands, err := sys.Candidates(r.Readers)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(cands); err != nil {
			t.Fatal(err)
		}
		ls.Steps = append(ls.Steps, rfidclean.LStep{Candidates: cands})
		if (k+1)%30 != 0 {
			continue
		}
		for _, mode := range []rfidclean.EndLatencyMode{rfidclean.StrictEnd, rfidclean.LenientEnd} {
			opts := &rfidclean.BuildOptions{EndLatency: mode}
			got, err := st.Smooth(opts)
			if err != nil {
				t.Fatal(err)
			}
			g, err := rfidclean.BuildCTGraph(ls, ic, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := g.Quotient()
			if !bytes.Equal(encode(got), encode(want)) {
				t.Fatalf("%v after %d readings: the session's smooth encodes unlike Build(…).Quotient()", mode, k+1)
			}
			merged = merged || want.Stats().Nodes < g.Stats().Nodes
		}
	}
	if !merged {
		t.Fatal("no quotient merged a node: the scenario cannot tell a quotient from Algorithm 1's graph")
	}
}

func TestIntervalQueriesFacade(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rfidclean.NewRNG(23)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	p, err := cleaned.EverIn("lab", 0, 119)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1+1e-9 {
		t.Errorf("EverIn = %v", p)
	}
	tm, err := cleaned.ExpectedVisitTime("lab", 0, 119)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 0 || tm > 120+1e-6 {
		t.Errorf("ExpectedVisitTime = %v", tm)
	}
	if _, err := cleaned.EverIn("nope", 0, 1); err == nil {
		t.Errorf("unknown location accepted")
	}
	if _, err := cleaned.ExpectedVisitTime("nope", 0, 1); err == nil {
		t.Errorf("unknown location accepted")
	}
	// Consistency: EverIn over a single timestamp equals the stay marginal.
	dist, err := cleaned.StayDistribution(50)
	if err != nil {
		t.Fatal(err)
	}
	labID, err := sys.LocationID("lab")
	if err != nil {
		t.Fatal(err)
	}
	single, err := cleaned.EverIn("lab", 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single-dist[labID]) > 1e-9 {
		t.Errorf("EverIn single timestamp %v != marginal %v", single, dist[labID])
	}
}

func TestCleanGroup(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rfidclean.NewRNG(61)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Three tags riding the same trajectory, each with independent noise.
	var group []rfidclean.ReadingSequence
	for i := 0; i < 3; i++ {
		group = append(group, rfidclean.GenerateReadings(truth, sys.Truth, rng.Split()))
	}
	single, err := sys.Clean(group[0], ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := sys.CleanGroup(group, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	locs := truth.Locations()
	var singleAcc, jointAcc float64
	for tau := 0; tau < 120; tau += 5 {
		sd, err := single.StayDistribution(tau)
		if err != nil {
			t.Fatal(err)
		}
		jd, err := joint.StayDistribution(tau)
		if err != nil {
			t.Fatal(err)
		}
		singleAcc += sd[locs[tau]]
		jointAcc += jd[locs[tau]]
	}
	t.Logf("group accuracy %.3f vs single-tag %.3f (sum over 24 queries)", jointAcc, singleAcc)
	if jointAcc < singleAcc-1.0 {
		t.Errorf("group cleaning much worse than single-tag: %.3f vs %.3f", jointAcc, singleAcc)
	}

	// Errors.
	if _, err := sys.CleanGroup(nil, ic, nil); err == nil {
		t.Errorf("empty group accepted")
	}
	sysNoPrior, err := rfidclean.NewSystem(sys.Plan, sys.Readers, rfidclean.DefaultThreeState(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysNoPrior.CleanGroup(group, ic, nil); err == nil {
		t.Errorf("CleanGroup without prior accepted")
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	sys := demoSystem(t)
	dep := &rfidclean.Deployment{
		Name:               "demo",
		Plan:               sys.Plan,
		Readers:            sys.Readers,
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           0.5,
		CalibrationSamples: 30,
		Seed:               7,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rfidclean.DecodeDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "demo" || back.Plan.NumLocations() != sys.Plan.NumLocations() {
		t.Fatalf("deployment changed: %+v", back)
	}
	sys2, err := back.System()
	if err != nil {
		t.Fatal(err)
	}
	// Same seed -> identical priors.
	a := sys.Prior.Dist(rfidclean.NewReaderSet(0))
	b := sys2.Prior.Dist(rfidclean.NewReaderSet(0))
	for loc := range a {
		if math.Abs(a[loc]-b[loc]) > 1e-12 {
			t.Fatalf("prior changed at loc %d: %v vs %v", loc, a[loc], b[loc])
		}
	}
}

func TestDeploymentValidation(t *testing.T) {
	sys := demoSystem(t)
	good := func() *rfidclean.Deployment {
		return &rfidclean.Deployment{
			Name: "d", Plan: sys.Plan, Readers: sys.Readers,
			Detection: rfidclean.DefaultThreeState(), CellSize: 0.5,
			CalibrationSamples: 30, Seed: 1,
		}
	}
	var buf bytes.Buffer
	if err := (&rfidclean.Deployment{}).Encode(&buf); err == nil {
		t.Errorf("nil plan accepted")
	}
	cases := []func(*rfidclean.Deployment){
		func(d *rfidclean.Deployment) { d.Readers = nil },
		func(d *rfidclean.Deployment) { d.Readers = append(d.Readers[:0:0], d.Readers[0], d.Readers[0]) },
		func(d *rfidclean.Deployment) {
			rs := append([]rfidclean.Reader(nil), d.Readers...)
			rs[0].Floor = 9
			d.Readers = rs
		},
		func(d *rfidclean.Deployment) { d.CellSize = 0 },
		func(d *rfidclean.Deployment) { d.CellSize = math.Inf(1) },
		func(d *rfidclean.Deployment) { d.CalibrationSamples = 0 },
		// The 12x8 m plan with 3 readers: 9.6e7 grid cells; 3.84e6 cells but
		// 1.15e7 reader-cell pairs; 1,152 pairs at 2^20 samples each.
		func(d *rfidclean.Deployment) { d.CellSize = 1e-3 },
		func(d *rfidclean.Deployment) { d.CellSize = 0.005 },
		func(d *rfidclean.Deployment) { d.CalibrationSamples = 1 << 20 },
	}
	for i, mutate := range cases {
		d := good()
		mutate(d)
		if _, err := d.System(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := rfidclean.DecodeDeployment(bytes.NewBufferString("{")); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestEventsAndTransitions(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rfidclean.NewRNG(41)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	events := cleaned.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	covered := 0
	for _, ev := range events {
		covered += ev.Duration()
	}
	if covered != 120 {
		t.Errorf("events cover %d timestamps, want 120", covered)
	}
	tm := cleaned.TransitionMatrix()
	total := 0.0
	for _, row := range tm {
		for _, v := range row {
			if v < -1e-9 {
				t.Fatalf("negative transition expectation %v", v)
			}
			total += v
		}
	}
	if math.Abs(total-119) > 1e-6 {
		t.Errorf("transitions sum to %v, want 119", total)
	}
}
