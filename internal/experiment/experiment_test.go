package experiment

import (
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/dataset"
)

// tinyParams keeps experiment tests fast.
func tinyParams() Params {
	return Params{
		Durations:    []int{60, 120},
		Trajectories: 2,
		StayQueries:  5,
		TrajQueries:  3,
		Mode:         constraints.LenientEnd,
	}
}

// tinyDataset is a single-floor dataset, cached across tests.
var tinyCache *dataset.Dataset

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	if tinyCache != nil {
		return tinyCache
	}
	cfg := dataset.SYN1()
	cfg.Floors = 1
	d, err := dataset.Build("TINY", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tinyCache = d
	return d
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{Durations: []int{0}, Trajectories: 1},
		{Durations: []int{10}, Trajectories: 0},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
	for _, p := range []Params{Quick(), Medium(), Full()} {
		if err := p.validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestCleaningCost(t *testing.T) {
	d := tinyDataset(t)
	p := tinyParams()
	results, err := CleaningCost(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(p.Durations)*len(dataset.Selections) {
		t.Fatalf("got %d results", len(results))
	}
	// Aggregate sanity: time and size grow with the constraint set at a
	// fixed duration (DU <= DU+LT+TT) and nodes grow with duration.
	byKey := map[string]CleaningResult{}
	for _, r := range results {
		if r.Skipped == r.Trajectories {
			t.Fatalf("every instance skipped for %v/%d", r.Selection, r.Duration)
		}
		if r.MeanNodes <= 0 || r.MeanSeconds < 0 {
			t.Errorf("degenerate result %+v", r)
		}
		if r.MeanServedNodesBuilt <= 0 || r.MeanServedNodesBuilt > r.MeanNodesBuilt || r.MeanNodes > r.MeanNodesBuilt {
			t.Errorf("served build made %v nodes, Algorithm 1 %v (%v kept)", r.MeanServedNodesBuilt, r.MeanNodesBuilt, r.MeanNodes)
		}
		byKey[r.Selection.String()+"@"+itoa(r.Duration)] = r
	}
	du := byKey["DU@120"]
	tt := byKey["DU+LT+TT@120"]
	if tt.MeanNodes < du.MeanNodes {
		t.Errorf("TT graphs smaller than DU graphs: %v vs %v", tt.MeanNodes, du.MeanNodes)
	}
	if byKey["DU@60"].MeanNodes >= byKey["DU@120"].MeanNodes {
		t.Errorf("nodes do not grow with duration")
	}

	table := CleaningTable(results)
	var sb strings.Builder
	if err := table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CTG(DU+LT+TT)") {
		t.Errorf("table missing series:\n%s", sb.String())
	}
	size := GraphSizeTable(results)
	if len(size.Rows) != len(dataset.Selections) {
		t.Errorf("size table rows = %d", len(size.Rows))
	}
}

func TestQueryCost(t *testing.T) {
	d := tinyDataset(t)
	results, err := QueryCost(d, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.MeanStaySeconds < 0 || r.MeanTrajSeconds < 0 {
			t.Errorf("negative time %+v", r)
		}
	}
	var sb strings.Builder
	if err := QueryCostTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stay query") {
		t.Errorf("table malformed")
	}
}

func TestAccuracy(t *testing.T) {
	d := tinyDataset(t)
	overall, byLen, err := AccuracyWithLengths(d, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(overall) != len(dataset.Selections) {
		t.Fatalf("overall results = %d", len(overall))
	}
	for _, r := range overall {
		if r.Stay < 0 || r.Stay > 1 || r.Traj < 0 || r.Traj > 1 || r.PriorStay < 0 || r.PriorStay > 1 {
			t.Errorf("accuracy out of range: %+v", r)
		}
		if r.StayQueries == 0 || r.TrajQueries == 0 {
			t.Errorf("no queries ran: %+v", r)
		}
		// The paper's headline: conditioning under constraints improves
		// stay accuracy over the unconditioned prior.
		if r.Stay < r.PriorStay-0.05 {
			t.Errorf("%v: cleaned accuracy %.3f worse than prior %.3f", r.Selection, r.Stay, r.PriorStay)
		}
	}
	if len(byLen) != 3*len(dataset.Selections) {
		t.Fatalf("by-length results = %d", len(byLen))
	}
	var sb strings.Builder
	if err := AccuracyTable(overall).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if err := AccuracyByLengthTable(byLen).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "anchors") {
		t.Errorf("by-length table malformed")
	}
	// Accuracy (without lengths) returns the same overall rows.
	again, err := Accuracy(d, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(overall) || again[0].Stay != overall[0].Stay {
		t.Errorf("Accuracy disagrees with AccuracyWithLengths")
	}
}

func TestPriorFormulaAblation(t *testing.T) {
	cfg := dataset.SYN1()
	cfg.Floors = 1
	results, err := PriorFormulaAblation(cfg, "TINY", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Full likelihood is at least as sharp a prior: no more candidates.
	if results[1].Cands > results[0].Cands+1e-9 {
		t.Errorf("full likelihood has more candidates (%v) than paper formula (%v)",
			results[1].Cands, results[0].Cands)
	}
	var sb strings.Builder
	if err := PriorAblationTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestEndLatencyAblation(t *testing.T) {
	d := tinyDataset(t)
	results, err := EndLatencyAblation(d, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var sb strings.Builder
	if err := EndLatencyAblationTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "strict-end") || !strings.Contains(sb.String(), "lenient-end") {
		t.Errorf("modes missing:\n%s", sb.String())
	}
}

func TestMinProbAblation(t *testing.T) {
	cfg := dataset.SYN1()
	cfg.Floors = 1
	results, err := MinProbAblation(cfg, "TINY", tinyParams(), []float64{0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	exact, pruned := results[0], results[1]
	if pruned.MeanNodes > exact.MeanNodes+1e-9 {
		t.Errorf("pruning increased graph size: %v vs %v", pruned.MeanNodes, exact.MeanNodes)
	}
	var sb strings.Builder
	if err := MinProbAblationTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestOracleVsCTGraph(t *testing.T) {
	d := tinyDataset(t)
	results, err := OracleVsCTGraph(d, []int{6, 8}, 2, 1<<18, constraints.LenientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var sb strings.Builder
	if err := OracleAblationTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := OracleVsCTGraph(d, nil, 2, 1, constraints.LenientEnd); err == nil {
		t.Errorf("empty durations accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"xxxxxx", "1"}, {"y", "2"}},
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Errorf("title missing")
	}
	// Data lines align to the same width (modulo trailing padding).
	if len(strings.TrimRight(lines[2], " ")) == 0 {
		t.Errorf("separator missing:\n%s", out)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestBaselineComparison(t *testing.T) {
	d := tinyDataset(t)
	results, err := BaselineComparison(d, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2+len(dataset.Selections) {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]BaselineResult{}
	for _, r := range results {
		if r.Queries == 0 {
			t.Errorf("%s ran no queries", r.Method)
		}
		if r.Stay < 0 || r.Stay > 1 || r.Top1 < 0 || r.Top1 > 1 {
			t.Errorf("%s accuracy out of range: %+v", r.Method, r)
		}
		byName[r.Method] = r
	}
	// The paper's thesis: constraint-aware conditioning beats the
	// reader-local SMURF baseline on stay accuracy.
	if byName["CTG(DU+LT)"].Stay < byName["SMURF + prior"].Stay-0.05 {
		t.Errorf("conditioning (%.3f) worse than SMURF baseline (%.3f)",
			byName["CTG(DU+LT)"].Stay, byName["SMURF + prior"].Stay)
	}
	var sb strings.Builder
	if err := BaselineTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SMURF") {
		t.Errorf("table missing baseline:\n%s", sb.String())
	}
}

func TestMapSizeAblation(t *testing.T) {
	results, err := MapSizeAblation(60, 1, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.MaxTT == 0 {
			t.Errorf("%s: no TT horizon measured", r.Dataset)
		}
	}
	var sb strings.Builder
	if err := MapSizeTable(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SYN2") {
		t.Errorf("table missing dataset")
	}
	if _, err := MapSizeAblation(0, 1, []int{1}); err == nil {
		t.Errorf("bad params accepted")
	}
}

func TestAccuracyDeterministicAcrossWorkerCounts(t *testing.T) {
	d := tinyDataset(t)
	serial := tinyParams()
	serial.Workers = 1
	parallel := tinyParams()
	parallel.Workers = 4
	a, err := Accuracy(d, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Accuracy(d, parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed results: %+v vs %+v", a[i], b[i])
		}
	}
}
