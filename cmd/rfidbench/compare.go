package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"text/tabwriter"
)

// This file reads BENCHMARK.json, checks it against the limits the file must
// meet, and compares two sets of runs (--out files) metric by metric: both
// medians, both quartile ranges, and a verdict against the metric's bound.

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadDoc   `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadBenchmark reads and validates BENCHMARK.json; unknown keys are errors.
func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// validate checks the file against its limits: sizes, name and unit
// alphabets, bounds of at most 0.25, and a lower-is-better setup_s.
func (f *benchmarkFile) validate() error {
	if len(f.Command) == 0 || len(f.Command) > 32 {
		return fmt.Errorf("command needs 1 to 32 strings")
	}
	if len(f.Paths) < 1 || len(f.Paths) > 16 {
		return fmt.Errorf("paths needs 1 to 16 directories")
	}
	for _, p := range f.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || strings.Contains(p, "..") {
			return fmt.Errorf("bad path %q", p)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside [1, 60]", f.RunSeconds)
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", len(f.Workloads))
	}
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		return fmt.Errorf("need 1-16 end-to-end and 1-128 per-layer metrics")
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) error {
		if !nameRE.MatchString(name) || seen[name] {
			return fmt.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			return fmt.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			return fmt.Errorf("%s: better must be lower or higher", name)
		}
		return nil
	}
	for _, w := range f.Workloads {
		if err := check(w.Name, "", ""); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		if err := check(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range f.PerLayer {
		if err := check(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

// readRuns reads an --out file.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric of one workload over the runs of a kind.
func values(runs []runRecord, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges set b against set a for one metric. change is b's median
// relative to a's, signed so that positive is worse.
func verdict(a, b []float64, better string, bound float64) (change float64, v string) {
	if len(a) < 2 || len(b) < 2 {
		return 0, "too few runs"
	}
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if better == "higher" {
		change = -change
	}
	switch {
	case bound == 0:
		return change, "-"
	case change > bound:
		return change, "WORSE"
	case spread(a) > bound || spread(b) > bound:
		return change, "unresolved (spread > bound)"
	case -change > spread(a):
		return change, "better"
	}
	return change, "within bound"
}

// runCompare prints the comparison of run files aPath and bPath and fails
// when any end-to-end metric got worse than its bound.
func runCompare(w io.Writer, benchPath, aPath, bPath string) error {
	f, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tbound\tverdict")
	worse := 0
	row := func(wl, name, unit, better string, bound float64, traced bool) {
		av, bv := values(a, wl, name, traced), values(b, wl, name, traced)
		if len(av) == 0 && len(bv) == 0 {
			return
		}
		change, v := verdict(av, bv, better, bound)
		if v == "WORSE" {
			worse++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%g\t%s\n",
			wl, name, unit, fmtMedian(av), fmtQuartiles(av), fmtMedian(bv), fmtQuartiles(bv), change*100, bound, v)
	}
	for _, wl := range f.Workloads {
		for _, m := range f.EndToEnd {
			row(wl.Name, m.Name, m.Unit, m.Better, m.Bound, false)
		}
		for _, m := range f.PerLayer {
			row(wl.Name, m.Name, m.Unit, m.Better, 0, true)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs got worse than their bound", worse)
	}
	return nil
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(xs))
}

func fmtQuartiles(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g..%.4g", q1, q3)
}
