package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBenchmarkJSONRoundTrip(t *testing.T) {
	const path = "../../BENCHMARK.json"
	f, err := loadBenchmark(path)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing in the file is dropped or renamed by the round trip.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed BENCHMARK.json:\n got %s\nwant %s", again, raw)
	}

	// The file describes this benchmark: its workloads and the metrics an
	// end-to-end run prints, with the same units.
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the table", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i] != (workloadDoc{Name: w.Name, Why: w.Why}) {
			t.Errorf("workload %d: file %+v, table %s: %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	for _, w := range workloads {
		m, err := endToEndMetrics(w, fakeRun(w, ""))
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != len(f.EndToEnd) {
			t.Errorf("%s: end-to-end run prints %d metrics, the file names %d", w.Name, len(m), len(f.EndToEnd))
		}
		for _, e := range f.EndToEnd {
			if v, ok := m[e.Name]; !ok || v.Unit != e.Unit || e.Better != "lower" || v.Value == 0 {
				t.Errorf("%s: end-to-end %s: printed %+v, file unit %s better %s", w.Name, e.Name, v, e.Unit, e.Better)
			}
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/rfidbench"}) || f.Command[0] != "bash" {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
}

func TestLoadBenchmarkRejectsOutOfLimitFiles(t *testing.T) {
	valid := `{"command":["bash","x.sh"],"paths":["b"],"run_seconds":10,
"workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],
"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
"per_layer":[{"name":"l","unit":"ms","better":"lower"}]}`
	dir := t.TempDir()
	load := func(s string) error {
		p := filepath.Join(dir, "b.json")
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadBenchmark(p)
		return err
	}
	if err := load(valid); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for name, edit := range map[string][2]string{
		"unknown key":    {`"run_seconds":10`, `"run_seconds":10,"baseline":{}`},
		"bound too wide": {`"bound":0.25`, `"bound":0.3`},
		"no setup_s":     {`"name":"setup_s"`, `"name":"boot_s"`},
		"repeated name":  {`"name":"b","why"`, `"name":"a","why"`},
		"bad unit":       {`"unit":"ms"`, `"unit":"milli seconds"`},
		"absolute path":  {`"paths":["b"]`, `"paths":["/b"]`},
		"escaping path":  {`"paths":["b"]`, `"paths":["../b"]`},
		"run too long":   {`"run_seconds":10`, `"run_seconds":61`},
		"one workload":   {`,{"name":"b","why":"y"}`, ``},
	} {
		if !strings.Contains(valid, edit[0]) {
			t.Fatalf("%s: edit does not apply", name)
		}
		if err := load(strings.Replace(valid, edit[0], edit[1], 1)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"command":["bash","x.sh"],"paths":["b"],"run_seconds":10,
"workloads":[{"name":"w1","why":"x"},{"name":"w2","why":"y"}],
"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
"per_layer":[{"name":"core.build_ms","unit":"ms","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat []float64, workload string) string {
		p := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i, v := range lat {
			rec := runRecord{Workload: workload, Seed: uint64(i), Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "lat_ms": {v, "ms"},
			}}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.jsonl", []float64{10, 10.1, 9.9, 10, 10.2}, "w1")
	same := write("b.jsonl", []float64{10.1, 9.9, 10, 10.1, 10}, "w1")
	slow := write("c.jsonl", []float64{12, 12.1, 11.9, 12, 12.2}, "w1")
	fast := write("d.jsonl", []float64{8, 8.1, 7.9, 8, 8.2}, "w1")

	var out bytes.Buffer
	if err := runCompare(&out, bench, base, same); err != nil {
		t.Errorf("same runs compared as a regression: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within bound") {
		t.Errorf("no within-bound verdict:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(&out, bench, base, slow); err == nil || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("20%% slower not flagged (err %v):\n%s", err, out.String())
	}
	out.Reset()
	if err := runCompare(&out, bench, base, fast); err != nil || !strings.Contains(out.String(), "better") {
		t.Errorf("20%% faster not reported better (err %v):\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "w2") {
		t.Errorf("workload without runs printed:\n%s", out.String())
	}
}

func TestVerdictNeedsSpreadWithinBound(t *testing.T) {
	noisy := []float64{5, 10, 15, 20, 25}
	if _, v := verdict(noisy, noisy, "lower", 0.1); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("noisy runs judged %q", v)
	}
	if _, v := verdict([]float64{1}, []float64{1, 2}, "lower", 0.1); v != "too few runs" {
		t.Errorf("single run judged %q", v)
	}
	if c, v := verdict([]float64{10, 10}, []float64{8, 8}, "higher", 0.1); v != "WORSE" || c <= 0 {
		t.Errorf("higher-is-better drop judged %q (%+g)", v, c)
	}
}
