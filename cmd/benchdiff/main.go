// Command benchdiff compares `go test -bench` output against a committed
// baseline and fails when a benchmark regresses past a threshold. It is the
// CI bench-regression guard:
//
//	go test -run '^$' -bench '...' -benchtime=5x ./... > fresh.txt
//	benchdiff -baseline BENCH_BASELINE.json -bench fresh.txt
//
// exits 1 if any baseline benchmark is missing from the fresh run or is more
// than -threshold slower (default 0.30, i.e. +30% ns/op). Shared-runner
// noise is real, so the threshold is deliberately loose: the guard exists to
// catch order-of-magnitude accidents (a dropped cache, an accidental
// quadratic loop), not single-digit drift.
//
// To (re)generate the baseline from a bench run:
//
//	benchdiff -write -baseline BENCH_BASELINE.json -bench fresh.txt
//
// When several samples of the same benchmark appear (e.g. -count=5), their
// median is compared (the lower median for an even count): unlike the
// minimum, it does not reward one lucky sample, so the figure is stable
// from run to run.
//
// -json <file> additionally writes the comparison as machine-readable JSON
// (per-benchmark verdicts, the fresh run's quartile spread, and the
// regressed list), written before the exit verdict so CI can upload it as
// an artifact even when the guard trips.
//
// -allocs <file> gates allocations as well: allocs/op are read from that
// bench output, which should come from a run with GOGC=off, one P and
// -benchmem. Without collections no sync.Pool empties mid-run, and with one
// P every Put is found by the next Get, so the count is exact and every
// benchmark with an allocsPerOp baseline fails on any increase; -write
// records them from it.
//
//	GOGC=off go test -run '^$' -bench '...' -benchtime=5x -benchmem -cpu 1 ./... > allocs.txt
//	benchdiff -baseline BENCH_BASELINE.json -bench fresh.txt -allocs allocs.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baseline is the committed JSON document. NsPerOp and AllocsPerOp are keyed
// by the benchmark name with the GOMAXPROCS suffix stripped (e.g.
// "BenchmarkBuild").
type baseline struct {
	// Note documents provenance for humans reading the committed file.
	Note        string             `json:"note,omitempty"`
	GoOS        string             `json:"goos,omitempty"`
	GoArch      string             `json:"goarch,omitempty"`
	NsPerOp     map[string]float64 `json:"nsPerOp"`
	AllocsPerOp map[string]float64 `json:"allocsPerOp,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, capturing the
// name (sans -N processor suffix), the ns/op figure and, when the line
// reports it, the allocs/op figure.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:[eE][+-]?\d+)?) ns/op(?:.*\s(\d+) allocs/op)?`)

// parseSamples extracts every ns/op sample per benchmark, in input order,
// and every allocs/op sample of the lines that report one.
func parseSamples(r io.Reader) (ns, allocs map[string][]float64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	ns, allocs = make(map[string][]float64), make(map[string][]float64)
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("benchdiff: bad ns/op in %q: %v", line, err)
		}
		ns[m[1]] = append(ns[m[1]], v)
		if m[3] != "" {
			a, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchdiff: bad allocs/op in %q: %v", line, err)
			}
			allocs[m[1]] = append(allocs[m[1]], a)
		}
	}
	return ns, allocs, nil
}

// medians returns the (lower) median of each benchmark's samples.
func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, s := range samples {
		_, out[name], _ = quartiles(s)
	}
	return out
}

// quartiles returns the lower quartile, the (lower) median and the upper
// quartile of samples, each an actual sample. It sorts samples in place.
func quartiles(samples []float64) (q1, median, q3 float64) {
	sort.Float64s(samples)
	n := len(samples) - 1
	return samples[n/4], samples[n/2], samples[n-n/4]
}

// parseBench extracts ns/op per benchmark from bench output: the median of
// its samples.
func parseBench(r io.Reader) (map[string]float64, error) {
	samples, _, err := parseSamples(r)
	if err != nil {
		return nil, err
	}
	return medians(samples), nil
}

// benchEntry is one benchmark's comparison in the -json report. BaselineNs
// is absent for "new" benchmarks; FreshNs, the fresh quartiles and Delta for
// "missing" ones.
type benchEntry struct {
	Name       string   `json:"name"`
	BaselineNs *float64 `json:"baselineNs,omitempty"`
	FreshNs    *float64 `json:"freshNs,omitempty"` // median of the fresh samples
	FreshQ1    *float64 `json:"freshQ1,omitempty"` // lower quartile
	FreshQ3    *float64 `json:"freshQ3,omitempty"` // upper quartile
	Samples    int      `json:"samples,omitempty"`
	Delta      *float64 `json:"delta,omitempty"` // fresh/baseline - 1
	Verdict    string   `json:"verdict"`         // ok | regressed | missing | new

	// The allocation gate's figures, for benchmarks with an allocsPerOp
	// baseline when -allocs is given. Any increase regresses.
	BaselineAllocs *float64 `json:"baselineAllocs,omitempty"`
	FreshAllocs    *float64 `json:"freshAllocs,omitempty"`
	AllocsVerdict  string   `json:"allocsVerdict,omitempty"` // ok | regressed | missing
}

// benchReport is the machine-readable comparison (-json file), uploaded as a
// CI artifact next to the human log.
type benchReport struct {
	Baseline   string       `json:"baseline"`
	Threshold  float64      `json:"threshold"`
	GoOS       string       `json:"goos"`
	GoArch     string       `json:"goarch"`
	Passed     bool         `json:"passed"`
	Benchmarks []benchEntry `json:"benchmarks"`
	Regressed  []string     `json:"regressed,omitempty"` // names that regressed or went missing
}

// compare evaluates each baseline benchmark's fresh/base ratio, returning the
// sorted per-benchmark entries plus the names that regressed past the
// threshold or went missing.
func compare(base, fresh map[string]float64, threshold float64) (entries []benchEntry, bad []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			entries = append(entries, benchEntry{Name: name, BaselineNs: &b, Verdict: "missing"})
			bad = append(bad, name)
			continue
		}
		delta := f/b - 1
		verdict := "ok"
		if delta > threshold {
			verdict = "regressed"
			bad = append(bad, name)
		}
		ff, dd := f, delta
		entries = append(entries, benchEntry{Name: name, BaselineNs: &b, FreshNs: &ff, Delta: &dd, Verdict: verdict})
	}
	// New benchmarks are informational: they only guard once baselined.
	extra := make([]string, 0)
	for name := range fresh {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		f := fresh[name]
		entries = append(entries, benchEntry{Name: name, FreshNs: &f, Verdict: "new"})
	}
	return entries, bad
}

// compareAllocs applies the allocation gate to entries (compare's output):
// every benchmark with a baseline allocation count must report one in fresh,
// and no more. It returns the names that failed.
func compareAllocs(entries []benchEntry, base, fresh map[string]float64) (bad []string) {
	for i := range entries {
		e := &entries[i]
		b, ok := base[e.Name]
		if !ok {
			continue
		}
		e.BaselineAllocs = &b
		f, ok := fresh[e.Name]
		switch {
		case !ok:
			e.AllocsVerdict = "missing"
		case f > b:
			e.AllocsVerdict = "regressed"
		default:
			e.AllocsVerdict = "ok"
		}
		if ok {
			e.FreshAllocs = &f
		}
		if e.AllocsVerdict != "ok" {
			bad = append(bad, e.Name)
		}
	}
	return bad
}

// renderText prints the human comparison log, sorted for stable CI output.
func renderText(w io.Writer, entries []benchEntry) {
	for _, e := range entries {
		switch e.Verdict {
		case "missing":
			fmt.Fprintf(w, "MISSING  %-40s baseline %.0f ns/op, absent from fresh run\n", e.Name, *e.BaselineNs)
		case "new":
			fmt.Fprintf(w, "new      %-40s %12.0f ns/op (not in baseline; re-run with -write to track)\n", e.Name, *e.FreshNs)
		case "regressed":
			fmt.Fprintf(w, "%-9s%-40s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
				"REGRESSED", e.Name, *e.BaselineNs, *e.FreshNs, *e.Delta*100)
		default:
			fmt.Fprintf(w, "%-9s%-40s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
				e.Verdict, e.Name, *e.BaselineNs, *e.FreshNs, *e.Delta*100)
		}
		switch e.AllocsVerdict {
		case "missing":
			fmt.Fprintf(w, "MISSING  %-40s baseline %.0f allocs/op, absent from the allocation run\n", e.Name, *e.BaselineAllocs)
		case "regressed":
			fmt.Fprintf(w, "%-9s%-40s %12.0f -> %12.0f allocs/op\n", "REGRESSED", e.Name, *e.BaselineAllocs, *e.FreshAllocs)
		case "ok":
			fmt.Fprintf(w, "%-9s%-40s %12.0f -> %12.0f allocs/op\n", "ok", e.Name, *e.BaselineAllocs, *e.FreshAllocs)
		}
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
	benchPath := fs.String("bench", "-", "fresh `go test -bench` output ('-' = stdin)")
	write := fs.Bool("write", false, "write the baseline from the bench output instead of comparing")
	threshold := fs.Float64("threshold", 0.30, "max allowed fractional slowdown per benchmark")
	note := fs.String("note", "", "provenance note stored with -write")
	jsonPath := fs.String("json", "", "also write the comparison as machine-readable JSON here")
	allocsPath := fs.String("allocs", "", "bench output of a GOGC=off -benchmem run to gate allocs/op with (and -write them from)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var freshAllocs map[string]float64
	if *allocsPath != "" {
		f, err := os.Open(*allocsPath)
		if err != nil {
			return err
		}
		_, samples, err := parseSamples(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			return fmt.Errorf("benchdiff: no allocs/op results in %s", *allocsPath)
		}
		freshAllocs = medians(samples)
	}

	in := stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	samples, _, err := parseSamples(in)
	if err != nil {
		return err
	}
	fresh := make(map[string]float64, len(samples))
	spread := make(map[string][2]float64, len(samples))
	for name, s := range samples {
		q1, median, q3 := quartiles(s)
		fresh[name], spread[name] = median, [2]float64{q1, q3}
	}
	if len(fresh) == 0 {
		return fmt.Errorf("benchdiff: no benchmark results in input")
	}

	if *write {
		doc := baseline{Note: *note, GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NsPerOp: fresh, AllocsPerOp: freshAllocs}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(fresh), *baselinePath)
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var doc baseline
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("benchdiff: %s: %v", *baselinePath, err)
	}
	if len(doc.NsPerOp) == 0 {
		return fmt.Errorf("benchdiff: %s holds no benchmarks", *baselinePath)
	}
	entries, badNs := compare(doc.NsPerOp, fresh, *threshold)
	var badAllocs []string
	if freshAllocs != nil {
		badAllocs = compareAllocs(entries, doc.AllocsPerOp, freshAllocs)
	}
	bad := append(append([]string(nil), badNs...), badAllocs...)
	for i := range entries {
		if e := &entries[i]; e.FreshNs != nil {
			q := spread[e.Name]
			e.FreshQ1, e.FreshQ3, e.Samples = &q[0], &q[1], len(samples[e.Name])
		}
	}
	renderText(stdout, entries)
	// The JSON report is written before the verdict is returned: on a red
	// gate the artifact is exactly what the investigation needs.
	if *jsonPath != "" {
		report := benchReport{
			Baseline: *baselinePath, Threshold: *threshold,
			GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
			Passed: len(bad) == 0, Benchmarks: entries, Regressed: bad,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	var failures []string
	if len(badNs) > 0 {
		failures = append(failures, fmt.Sprintf("%d benchmark(s) regressed past %.0f%% or went missing: %v",
			len(badNs), *threshold*100, badNs))
	}
	if len(badAllocs) > 0 {
		failures = append(failures, fmt.Sprintf("%d benchmark(s) allocate more than their baseline or went missing from the allocation run: %v",
			len(badAllocs), badAllocs))
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchdiff: %s", strings.Join(failures, "; "))
	}
	fmt.Fprintf(stdout, "all %d baselined benchmarks within %.0f%%\n", len(doc.NsPerOp), *threshold*100)
	if freshAllocs != nil {
		fmt.Fprintf(stdout, "all %d allocation baselines held\n", len(doc.AllocsPerOp))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
