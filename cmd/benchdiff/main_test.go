package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkBuild-8             	     100	    120000 ns/op	   43210 B/op	     321 allocs/op
BenchmarkBuild-8             	     100	    110000 ns/op
BenchmarkTopK-8              	    5000	      2500.5 ns/op
BenchmarkFilterObserve       	   20000	       800 ns/op
PASS
ok  	repro/internal/core	1.234s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkBuild":         110000, // lower median of the two samples
		"BenchmarkTopK":          2500.5,
		"BenchmarkFilterObserve": 800, // no -N suffix is fine too
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestCompare(t *testing.T) {
	base := map[string]float64{
		"BenchmarkBuild": 100000,
		"BenchmarkTopK":  1000,
		"BenchmarkGone":  500,
	}
	fresh := map[string]float64{
		"BenchmarkBuild": 125000, // +25%: inside a 30% threshold
		"BenchmarkTopK":  1400,   // +40%: regression
		"BenchmarkNew":   77,     // unbaselined: informational
	}
	entries, bad := compare(base, fresh, 0.30)
	if len(bad) != 2 || bad[0] != "BenchmarkGone" || bad[1] != "BenchmarkTopK" {
		t.Fatalf("bad = %v, want [BenchmarkGone BenchmarkTopK]", bad)
	}
	var out bytes.Buffer
	renderText(&out, entries)
	for _, needle := range []string{"REGRESSED", "MISSING", "BenchmarkNew"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("report missing %q:\n%s", needle, out.String())
		}
	}
	verdicts := map[string]string{}
	for _, e := range entries {
		verdicts[e.Name] = e.Verdict
	}
	want := map[string]string{
		"BenchmarkBuild": "ok", "BenchmarkTopK": "regressed",
		"BenchmarkGone": "missing", "BenchmarkNew": "new",
	}
	for name, v := range want {
		if verdicts[name] != v {
			t.Errorf("%s verdict = %q, want %q", name, verdicts[name], v)
		}
	}

	// Tightening the threshold flips the +25% into a failure.
	if _, bad := compare(base, fresh, 0.20); len(bad) != 3 {
		t.Errorf("threshold 0.20: bad = %v, want 3 entries", bad)
	}
}

// TestRunRoundTrip drives the CLI end to end: write a baseline from bench
// output, compare an identical run (pass), then a degraded run (fail).
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "baseline.json")

	var out bytes.Buffer
	err := run([]string{"-write", "-baseline", baselinePath, "-note", "unit test"},
		strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatalf("write: %v", err)
	}

	out.Reset()
	err = run([]string{"-baseline", baselinePath}, strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}

	slower := strings.ReplaceAll(sampleBench, "2500.5 ns/op", "9500.5 ns/op")
	out.Reset()
	err = run([]string{"-baseline", baselinePath}, strings.NewReader(slower), &out)
	if err == nil {
		t.Fatalf("3.8x slower TopK passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkTopK") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}

	// A bench run that silently drops a benchmark must fail too.
	dropped := strings.ReplaceAll(sampleBench, "BenchmarkTopK", "BenchmarkRenamed")
	if err := run([]string{"-baseline", baselinePath}, strings.NewReader(dropped), &bytes.Buffer{}); err == nil {
		t.Error("missing benchmark passed")
	}
}

// TestRunJSONReport: -json writes a machine-readable comparison, including
// (especially) when the guard trips.
func TestRunJSONReport(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "baseline.json")
	jsonPath := filepath.Join(dir, "benchdiff.json")
	if err := run([]string{"-write", "-baseline", baselinePath},
		strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	// Passing comparison.
	if err := run([]string{"-baseline", baselinePath, "-json", jsonPath},
		strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
	var report benchReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if !report.Passed || len(report.Regressed) != 0 || len(report.Benchmarks) != 3 {
		t.Fatalf("passing report wrong: %+v", report)
	}
	if report.Baseline != baselinePath || report.Threshold != 0.30 {
		t.Fatalf("report provenance wrong: %+v", report)
	}

	// Failing comparison still writes the report before erroring.
	slower := strings.ReplaceAll(sampleBench, "2500.5 ns/op", "9500.5 ns/op")
	if err := run([]string{"-baseline", baselinePath, "-json", jsonPath},
		strings.NewReader(slower), &bytes.Buffer{}); err == nil {
		t.Fatal("regressed run passed")
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("report must be written on a red gate: %v", err)
	}
	report = benchReport{}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Passed || len(report.Regressed) != 1 || report.Regressed[0] != "BenchmarkTopK" {
		t.Fatalf("failing report wrong: %+v", report)
	}
	for _, e := range report.Benchmarks {
		if e.Name == "BenchmarkTopK" {
			if e.Verdict != "regressed" || e.Delta == nil || *e.Delta < 2 {
				t.Fatalf("TopK entry wrong: %+v", e)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-baseline", "/nonexistent/baseline.json"},
		strings.NewReader(sampleBench), &bytes.Buffer{}); err == nil {
		t.Error("missing baseline file accepted")
	}
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Error("empty bench input accepted")
	}
	// os.Open error on -bench path.
	if err := run([]string{"-bench", "/nonexistent/fresh.txt"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("missing bench file accepted")
	}
}

// TestWriteProducesStableJSON: the committed baseline should be readable and
// carry provenance fields.
func TestWriteProducesStableJSON(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "b.json")
	if err := run([]string{"-write", "-baseline", p, "-note", "n1"},
		strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{`"note": "n1"`, `"nsPerOp"`, `"BenchmarkBuild"`} {
		if !strings.Contains(string(data), needle) {
			t.Errorf("baseline JSON missing %q:\n%s", needle, data)
		}
	}
}

// TestMedianAndSpread: repeated samples (-count=5) are compared by their
// median, so one lucky or unlucky sample moves nothing, and the -json report
// carries the fresh quartiles.
func TestMedianAndSpread(t *testing.T) {
	const fiveSamples = `BenchmarkBuild-2 5 100 ns/op
BenchmarkBuild-2 5 900 ns/op
BenchmarkBuild-2 5 120 ns/op
BenchmarkBuild-2 5 110 ns/op
BenchmarkBuild-2 5 10 ns/op
`
	got, err := parseBench(strings.NewReader(fiveSamples))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkBuild"] != 110 {
		t.Fatalf("median = %v, want 110", got["BenchmarkBuild"])
	}
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "baseline.json")
	jsonPath := filepath.Join(dir, "benchdiff.json")
	if err := run([]string{"-write", "-baseline", baselinePath},
		strings.NewReader(fiveSamples), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", baselinePath, "-json", jsonPath},
		strings.NewReader(fiveSamples), &bytes.Buffer{}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	e := report.Benchmarks[0]
	if e.FreshNs == nil || e.FreshQ1 == nil || e.FreshQ3 == nil ||
		*e.FreshNs != 110 || *e.FreshQ1 != 100 || *e.FreshQ3 != 120 || e.Samples != 5 {
		t.Fatalf("entry = %s", data)
	}
}

// sampleAllocs is a GOGC=off -benchmem run of sampleBench's benchmarks.
const sampleAllocs = `BenchmarkBuild-8             	       5	    100000 ns/op	   43210 B/op	     321 allocs/op
BenchmarkBuild-8             	       5	    101000 ns/op	   43210 B/op	     321 allocs/op
BenchmarkTopK-8              	       5	      2400 ns/op	       0 B/op	       0 allocs/op
BenchmarkFilterObserve       	       5	       790 ns/op	     512 B/op	       4 allocs/op
`

// TestParseAllocs: allocs/op are taken from the lines that report them.
func TestParseAllocs(t *testing.T) {
	_, allocs, err := parseSamples(strings.NewReader(sampleBench + sampleAllocs))
	if err != nil {
		t.Fatal(err)
	}
	got := medians(allocs)
	want := map[string]float64{"BenchmarkBuild": 321, "BenchmarkTopK": 0, "BenchmarkFilterObserve": 4}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, a := range want {
		if got[name] != a {
			t.Errorf("%s = %v allocs/op, want %v", name, got[name], a)
		}
	}
}

// TestAllocationGate: -write -allocs records allocs/op, a comparison with
// -allocs fails on one allocation more or on a benchmark missing from the
// allocation run, and a comparison without -allocs leaves them alone.
func TestAllocationGate(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "baseline.json")
	allocsPath := filepath.Join(dir, "allocs.txt")
	jsonPath := filepath.Join(dir, "benchdiff.json")
	writeAllocs := func(s string) {
		if err := os.WriteFile(allocsPath, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeAllocs(sampleAllocs)
	if err := run([]string{"-write", "-baseline", baselinePath, "-allocs", allocsPath},
		strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var doc baseline
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.AllocsPerOp["BenchmarkBuild"] != 321 || len(doc.AllocsPerOp) != 3 {
		t.Fatalf("allocsPerOp = %v", doc.AllocsPerOp)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", baselinePath, "-allocs", allocsPath}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}

	// Fewer allocations pass; one more fails, named, with the JSON verdict.
	writeAllocs(strings.Replace(sampleAllocs, "     4 allocs/op", "     3 allocs/op", 1))
	if err := run([]string{"-baseline", baselinePath, "-allocs", allocsPath}, strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatalf("fewer allocations failed: %v", err)
	}
	writeAllocs(strings.Replace(sampleAllocs, "     4 allocs/op", "     5 allocs/op", 1))
	err = run([]string{"-baseline", baselinePath, "-allocs", allocsPath, "-json", jsonPath}, strings.NewReader(sampleBench), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFilterObserve") {
		t.Fatalf("one more allocation: err = %v, want a failure naming BenchmarkFilterObserve", err)
	}
	var report benchReport
	if data, err = os.ReadFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, e := range report.Benchmarks {
		if e.Name == "BenchmarkFilterObserve" && (e.AllocsVerdict != "regressed" || *e.FreshAllocs != 5 || *e.BaselineAllocs != 4) {
			t.Fatalf("entry = %+v", e)
		}
	}
	if report.Passed {
		t.Fatal("report passed")
	}

	// A benchmark the allocation run lacks fails too.
	writeAllocs(strings.ReplaceAll(sampleAllocs, "BenchmarkTopK", "BenchmarkRenamed"))
	if err := run([]string{"-baseline", baselinePath, "-allocs", allocsPath}, strings.NewReader(sampleBench), &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkTopK") {
		t.Fatalf("missing from the allocation run: err = %v", err)
	}

	// Without -allocs, allocation counts are not compared: the timing run's
	// counts (here 321 on one of two lines) gate nothing.
	if err := run([]string{"-baseline", baselinePath}, strings.NewReader(strings.Replace(sampleBench, "321 allocs", "999 allocs", 1)), &bytes.Buffer{}); err != nil {
		t.Fatalf("timing run without -allocs: %v", err)
	}
	if err := run([]string{"-baseline", baselinePath, "-allocs", filepath.Join(dir, "none.txt")}, strings.NewReader(sampleBench), &bytes.Buffer{}); err == nil {
		t.Error("missing -allocs file accepted")
	}
}
