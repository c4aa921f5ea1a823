// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at bench scale, plus micro-benchmarks of the pipeline stages and the
// ablation studies of DESIGN.md. Figure-level benches report the measured
// series via b.ReportMetric so `go test -bench` output doubles as a compact
// experiment log; cmd/experiments prints the full tables at any scale.
package rfidclean_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	rfidclean "repro"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/prior"
	"repro/internal/query"
	"repro/internal/stats"
)

var (
	benchOnce sync.Once
	syn1      *dataset.Dataset
	syn2      *dataset.Dataset
)

func benchDatasets(b *testing.B) (*dataset.Dataset, *dataset.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if syn1, err = dataset.Build("SYN1", dataset.SYN1()); err != nil {
			b.Fatal(err)
		}
		if syn2, err = dataset.Build("SYN2", dataset.SYN2()); err != nil {
			b.Fatal(err)
		}
	})
	if syn1 == nil || syn2 == nil {
		b.Fatal("dataset construction failed earlier")
	}
	return syn1, syn2
}

// benchInstance returns one fixed instance of the given duration.
func benchInstance(b *testing.B, d *dataset.Dataset, duration int) dataset.Instance {
	b.Helper()
	insts, err := d.Generate(duration, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	return insts[0]
}

func buildFor(b *testing.B, d *dataset.Dataset, inst dataset.Instance, sel dataset.Selection) *core.Graph {
	b.Helper()
	ls, err := d.Prior.LSequence(inst.Readings)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Build(ls, d.Constraints(sel), &core.Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Micro-benchmarks: the pipeline stages -------------------------------

// BenchmarkBuildCTGraph measures Algorithm 1 on a fixed 5-minute SYN1
// instance under each constraint set (the per-point cost behind Fig. 8(a)).
func BenchmarkBuildCTGraph(b *testing.B) {
	d, _ := benchDatasets(b)
	inst := benchInstance(b, d, 300)
	ls, err := d.Prior.LSequence(inst.Readings)
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range dataset.Selections {
		ic := d.Constraints(sel)
		b.Run(sel.String(), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				g, err := core.Build(ls, ic, &core.Options{EndLatency: constraints.LenientEnd})
				if err != nil {
					b.Fatal(err)
				}
				nodes = g.Stats().Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkLSequence measures reading interpretation through p*(l|R).
func BenchmarkLSequence(b *testing.B) {
	d, _ := benchDatasets(b)
	inst := benchInstance(b, d, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Prior.LSequence(inst.Readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStayQuery measures one stay query on a cleaned 5-minute graph.
func BenchmarkStayQuery(b *testing.B) {
	d, _ := benchDatasets(b)
	inst := benchInstance(b, d, 300)
	for _, sel := range dataset.Selections {
		g := buildFor(b, d, inst, sel)
		b.Run(sel.String(), func(b *testing.B) {
			rng := stats.NewRNG(1)
			for i := 0; i < b.N; i++ {
				eng := query.NewEngine(g, d.Plan.NumLocations())
				if _, err := eng.Stay(rng.Intn(300)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrajectoryQuery measures one pattern query on a cleaned graph.
func BenchmarkTrajectoryQuery(b *testing.B) {
	d, _ := benchDatasets(b)
	inst := benchInstance(b, d, 300)
	locs := make([]int, d.Plan.NumLocations())
	for i := range locs {
		locs[i] = i
	}
	for _, sel := range dataset.Selections {
		g := buildFor(b, d, inst, sel)
		eng := query.NewEngine(g, d.Plan.NumLocations())
		b.Run(sel.String(), func(b *testing.B) {
			rng := stats.NewRNG(2)
			for i := 0; i < b.N; i++ {
				pat := query.RandomPattern(rng, locs, 3)
				if _, err := eng.Trajectory(pat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleAndViterbi measures trajectory extraction primitives.
func BenchmarkSampleAndViterbi(b *testing.B) {
	d, _ := benchDatasets(b)
	g := buildFor(b, d, benchInstance(b, d, 300), dataset.SelDULT)
	b.Run("Sample", func(b *testing.B) {
		rng := stats.NewRNG(3)
		for i := 0; i < b.N; i++ {
			if g.Sample(rng) == nil {
				b.Fatal("sample failed")
			}
		}
	})
	b.Run("Viterbi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if locs, _ := g.MostProbable(); locs == nil {
				b.Fatal("viterbi failed")
			}
		}
	})
	b.Run("Marginals", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Marginals(d.Plan.NumLocations())
		}
	})
}

// BenchmarkPriorDist measures p*(l|R) evaluation with a cold cache: a fresh
// model each iteration, so the cell-sum formula itself is timed.
func BenchmarkPriorDist(b *testing.B) {
	d, _ := benchDatasets(b)
	inst := benchInstance(b, d, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := prior.New(d.Learned, prior.Options{})
		m.Dist(inst.Readings[i%len(inst.Readings)].Readers)
	}
}

// syn1Deployment returns the SYN1 dataset and its deployment description.
func syn1Deployment(b testing.TB) (*dataset.Dataset, *rfidclean.Deployment) {
	b.Helper()
	cfg := dataset.SYN1()
	d, err := dataset.Build("SYN1", cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d, &rfidclean.Deployment{
		Name:               "SYN1",
		Plan:               d.Plan,
		Readers:            d.Readers,
		Detection:          cfg.Detection,
		CellSize:           cfg.CellSize,
		CalibrationSamples: cfg.CalibrationSamples,
		Seed:               cfg.Seed,
	}
}

// BenchmarkDeploymentSystem measures instantiating the SYN1 deployment: the
// cell space, the ground-truth detection matrix, its calibration and the
// prior. A server pays this per registration and per recovered deployment.
func BenchmarkDeploymentSystem(b *testing.B) {
	_, dep := syn1Deployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.System(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidates measures System.Candidates, the per-reading prior
// lookup of a stream session, over a 300-s SYN1 instance with a warm cache.
func BenchmarkCandidates(b *testing.B) {
	d, dep := syn1Deployment(b)
	sys, err := dep.System()
	if err != nil {
		b.Fatal(err)
	}
	readings := benchInstance(b, d, 300).Readings
	for _, r := range readings {
		if _, err := sys.Candidates(r.Readers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Candidates(readings[i%len(readings)].Readers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSession measures one stream session the way the server runs
// it, without HTTP: open a quotient-only BuildState, observe a 20-s SYN1 sequence through
// the prior, smooth it into a stored quotient, release the state.
func BenchmarkStreamSession(b *testing.B) {
	d, dep := syn1Deployment(b)
	sys, err := dep.System()
	if err != nil {
		b.Fatal(err)
	}
	ic, err := sys.Constraints(rfidclean.ConstraintParams{MaxSpeed: 2, MinStay: 5})
	if err != nil {
		b.Fatal(err)
	}
	readings := benchInstance(b, d, 20).Readings
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Quotient: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := rfidclean.NewBuildState(ic)
		for _, r := range readings {
			cands, err := sys.Candidates(r.Readers)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Observe(cands); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.SmoothState(st, opts); err != nil {
			b.Fatal(err)
		}
		st.Release()
	}
}

// BenchmarkSYN1Pool measures the core work of the daemon's traffic over 128
// 20-s SYN1 sequences, generated from cmd/rfidbench's reference stream and
// kept, as its pools are, when they can be conditioned. One op cleans every
// sequence with Quotient and streams it through a quotient-only session, as
// the server opens, that observes each reading, smooths with Quotient and is
// released. The sequences' graph sizes
// are heavy tailed like the daemon's, which benchScenario's are not: the
// widest levels and TL histories come from the tail.
func BenchmarkSYN1Pool(b *testing.B) {
	d, dep := syn1Deployment(b)
	sys, err := dep.System()
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.SYN1()
	ic, err := sys.Constraints(rfidclean.ConstraintParams{MaxSpeed: cfg.MaxSpeed, MinStay: cfg.MinStay, TTCap: cfg.TTCap})
	if err != nil {
		b.Fatal(err)
	}
	insts, err := d.Generate(20, 128, 0x5eed)
	if err != nil {
		b.Fatal(err)
	}
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Quotient: true}
	var pool []rfidclean.ReadingSequence
	for _, inst := range insts {
		if _, err := sys.Clean(inst.Readings, ic, opts); err == nil {
			pool = append(pool, inst.Readings)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seq := range pool {
			if _, err := sys.Clean(seq, ic, opts); err != nil {
				b.Fatal(err)
			}
			st := rfidclean.NewBuildState(ic)
			for _, r := range seq {
				cands, err := sys.Candidates(r.Readers)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Observe(cands); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sys.SmoothState(st, opts); err != nil {
				b.Fatal(err)
			}
			st.Release()
		}
	}
}

// --- Figure-level benchmarks (one per table/figure) -----------------------

// BenchmarkFig8aCleaningTimeSYN1 regenerates Fig. 8(a): average cleaning
// time vs duration on SYN1 for CTG(DU), CTG(DU+LT), CTG(DU+LT+TT).
func BenchmarkFig8aCleaningTimeSYN1(b *testing.B) {
	d, _ := benchDatasets(b)
	benchCleaning(b, d)
}

// BenchmarkFig8bCleaningTimeSYN2 regenerates Fig. 8(b) on SYN2.
func BenchmarkFig8bCleaningTimeSYN2(b *testing.B) {
	_, d := benchDatasets(b)
	benchCleaning(b, d)
}

func benchCleaning(b *testing.B, d *dataset.Dataset) {
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.CleaningCost(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.MeanSeconds,
					fmt.Sprintf("s/CTG(%s)@%d", r.Selection, r.Duration))
			}
		}
	}
}

// BenchmarkFig8cQueryTime regenerates Fig. 8(c): average query time vs
// duration on both datasets.
func BenchmarkFig8cQueryTime(b *testing.B) {
	d1, d2 := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		for _, d := range []*dataset.Dataset{d1, d2} {
			results, err := experiment.QueryCost(d, p)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				for _, r := range results {
					if r.Duration == p.Durations[len(p.Durations)-1] {
						b.ReportMetric(r.MeanStaySeconds, fmt.Sprintf("s/stay-%s-%s", d.Name, r.Selection))
					}
				}
			}
		}
	}
}

// BenchmarkFig9aStayAccuracy regenerates Fig. 9(a): average stay-query
// accuracy per dataset and constraint set (plus the prior baseline).
func BenchmarkFig9aStayAccuracy(b *testing.B) {
	benchAccuracy(b, func(b *testing.B, r experiment.AccuracyResult) {
		b.ReportMetric(r.Stay, fmt.Sprintf("acc/%s-%s", r.Dataset, r.Selection))
		b.ReportMetric(r.PriorStay, fmt.Sprintf("acc/%s-prior", r.Dataset))
	})
}

// BenchmarkFig9bTrajectoryAccuracy regenerates Fig. 9(b): average
// trajectory-query accuracy per dataset and constraint set.
func BenchmarkFig9bTrajectoryAccuracy(b *testing.B) {
	benchAccuracy(b, func(b *testing.B, r experiment.AccuracyResult) {
		b.ReportMetric(r.Traj, fmt.Sprintf("acc/%s-%s", r.Dataset, r.Selection))
	})
}

func benchAccuracy(b *testing.B, report func(*testing.B, experiment.AccuracyResult)) {
	d1, d2 := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		for _, d := range []*dataset.Dataset{d1, d2} {
			results, err := experiment.Accuracy(d, p)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				for _, r := range results {
					report(b, r)
				}
			}
		}
	}
}

// BenchmarkFig9cAccuracyVsQueryLength regenerates Fig. 9(c): trajectory
// query accuracy vs the number of anchors, on SYN2.
func BenchmarkFig9cAccuracyVsQueryLength(b *testing.B) {
	_, d2 := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		_, byLen, err := experiment.AccuracyWithLengths(d2, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range byLen {
				if r.Selection == dataset.SelDULTTT {
					b.ReportMetric(r.Traj, fmt.Sprintf("acc/anchors-%d", r.Anchors))
				}
			}
		}
	}
}

// BenchmarkGraphSize regenerates the §6.7 size comparison: ct-graph memory
// at the longest duration under DU vs DU+LT+TT.
func BenchmarkGraphSize(b *testing.B) {
	d, _ := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.CleaningCost(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			maxDur := p.Durations[len(p.Durations)-1]
			for _, r := range results {
				if r.Duration == maxDur {
					b.ReportMetric(r.MeanBytes/1e6, fmt.Sprintf("MB/%s", r.Selection))
				}
			}
		}
	}
}

// --- Ablation benchmarks --------------------------------------------------

// BenchmarkAblationPriorFormula compares the paper's p*(l|R) formula against
// the full detection likelihood (A1).
func BenchmarkAblationPriorFormula(b *testing.B) {
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.PriorFormulaAblation(dataset.SYN1(), "SYN1", p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.Stay, fmt.Sprintf("acc/%s", r.Formula))
				b.ReportMetric(r.Cands, fmt.Sprintf("cands/%s", r.Formula))
			}
		}
	}
}

// BenchmarkAblationEndLatency compares strict (Definition 2) and lenient
// (Algorithm 1) end-of-window semantics (A2).
func BenchmarkAblationEndLatency(b *testing.B) {
	d, _ := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.EndLatencyAblation(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.MeanNodes, fmt.Sprintf("nodes/%s", r.Mode))
			}
		}
	}
}

// BenchmarkAblationMinProb compares exact candidate sets against ε-pruned
// ones (A3).
func BenchmarkAblationMinProb(b *testing.B) {
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.MinProbAblation(dataset.SYN1(), "SYN1", p, []float64{0, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.MeanNodes, fmt.Sprintf("nodes/min%.2g", r.MinProb))
				b.ReportMetric(r.Stay, fmt.Sprintf("acc/min%.2g", r.MinProb))
			}
		}
	}
}

// BenchmarkBaselineComparison measures the cleaning methods side by side:
// raw prior, the SMURF-style smoothing baseline, and conditioning.
func BenchmarkBaselineComparison(b *testing.B) {
	d, _ := benchDatasets(b)
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiment.BaselineComparison(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				// Metric units must not contain whitespace.
				unit := strings.ReplaceAll(r.Method, " ", "")
				b.ReportMetric(r.Stay, "acc/"+unit)
			}
		}
	}
}

// BenchmarkAblationMapSize measures §6.5's map-size effect with uncapped TT
// horizons (A5).
func BenchmarkAblationMapSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiment.MapSizeAblation(120, 1, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.MeanSeconds, "s/"+r.Dataset)
			}
		}
	}
}

// BenchmarkOracleVsCTGraph measures the naive enumeration baseline against
// Algorithm 1 on short windows (A4 — the introduction's blow-up argument).
func BenchmarkOracleVsCTGraph(b *testing.B) {
	d, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		results, err := experiment.OracleVsCTGraph(d, []int{8, 10, 12}, 2, 1<<22, constraints.LenientEnd)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.OracleSeconds, fmt.Sprintf("s/oracle@%d", r.Duration))
				b.ReportMetric(r.GraphSeconds, fmt.Sprintf("s/ctg@%d", r.Duration))
			}
		}
	}
}

// --- Streaming sessions: incremental smoothing vs full rebuild -----------

// benchSession returns the demo system, its inferred constraints, and a
// generated reading sequence of the given duration — the fixture behind the
// live-state-vs-from-scratch smoothing comparison.
func benchSession(b *testing.B, duration int) (*rfidclean.System, *rfidclean.ConstraintSet, rfidclean.ReadingSequence) {
	b.Helper()
	sys := demoSystem(b)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rfidclean.NewRNG(11)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(duration), rng)
	if err != nil {
		b.Fatal(err)
	}
	return sys, ic, rfidclean.GenerateReadings(truth, sys.Truth, rng)
}

// BenchmarkSessionSmoothIncremental measures a stream session's smooth end
// to end: a session that already observed 500 readings takes one more and
// re-smooths through its live BuildState (SmoothState), which reconditions
// the raw graph its Observes grew. Only the smoothing is timed — Observe
// runs at ingestion, when the reading is POSTed, not when smoothing is
// requested. Pair with BenchmarkSessionSmoothFull, the same answer without
// the live state.
func BenchmarkSessionSmoothIncremental(b *testing.B) {
	const warm = 500
	sys, ic, readings := benchSession(b, warm+1)
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := rfidclean.NewBuildState(ic)
		for _, r := range readings[:warm] {
			cands, err := sys.Candidates(r.Readers)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Observe(cands); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.SmoothState(st, opts); err != nil {
			b.Fatal(err)
		}
		cands, err := sys.Candidates(readings[warm].Readers)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Observe(cands); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.SmoothState(st, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSmoothFull measures what a smooth would cost a session
// that kept only its readings: re-cleaning the same 501-reading buffer from
// scratch (l-sequence derivation plus Algorithm 1).
func BenchmarkSessionSmoothFull(b *testing.B) {
	sys, ic, readings := benchSession(b, 501)
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Clean(readings, ic, opts); err != nil {
			b.Fatal(err)
		}
	}
}
