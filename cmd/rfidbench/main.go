package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Locations relative to the checkout root the benchmark runs from. A traced
// run also writes BENCH_TRACE.json and BENCH_LAYERS.json into buildDir.
const (
	buildDir  = ".bench_build"
	daemonBin = buildDir + "/bin/rfidcleand"
	runDir    = buildDir + "/run"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an --out file: a result with what produced it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidbench: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rfidbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = fs.Uint64("seed", 1, "input seed; 1 is the baseline, 2 the held-out seed")
		seconds = fs.Int("seconds", 25, "length of the measured window, s")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
		out     = fs.String("out", "", "also append this run's record to the given JSON-lines file")
		compare = fs.Bool("compare", false, "compare two --out files: rfidbench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			log.Print("-compare needs two run files")
			return 2
		}
		if err := runCompare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Print("--seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	res, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		log.Print(err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, runRecord{Workload: w.Name, Seed: *seed, Trace: *trace == 1, Result: res}); err != nil {
			log.Print(err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and returns its result: the end-to-end metrics,
// or with traced set the per-layer metrics.
func measure(ctx context.Context, w workload, seed uint64, windowLen time.Duration, traced bool) (result, error) {
	if _, err := os.Stat(daemonBin); err != nil {
		return result{}, fmt.Errorf("daemon binary: %w (run the benchmark through cmd/rfidbench/run.sh)", err)
	}
	work := filepath.Join(runDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	b, err := newBench(w, seed, windowLen, daemonBin, work)
	if err != nil {
		return result{}, err
	}
	b.out = buildDir
	e2e, err := b.endToEnd(ctx)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   e2e.checkErr == nil,
		Attempted: e2e.win.stats.ops,
		Failed:    e2e.win.stats.failed,
	}
	if e2e.checkErr == nil {
		log.Printf("answers checked; recovery took %.3fs", e2e.recovery.Seconds())
	}
	if e2e.checkErr != nil {
		log.Printf("correctness gate failed: %v", e2e.checkErr)
	}
	if e2e.win.stats.firstErr != nil {
		log.Printf("%d of %d ops failed; first: %v", res.Failed, res.Attempted, e2e.win.stats.firstErr)
	}
	if traced {
		res.Metrics, err = b.layerMetrics(ctx, e2e)
	} else {
		res.Metrics, err = endToEndMetrics(w, e2e)
	}
	return res, err
}

// e2eRun is one end-to-end run's raw outcome.
type e2eRun struct {
	dir      string    // data directory of the last daemon, killed
	setups   []float64 // set-up durations, s
	setupKMs []float64 // speed kernel times around the set-ups, ms
	win      *window
	recovery time.Duration // exec → healthy of the recovered daemon
	checkErr error         // nil when every correctness check passed
}

// endToEnd sets up, drives the warm-up and the window, checks the answers
// and the recovery, and tears down.
func (b *bench) endToEnd(ctx context.Context) (*e2eRun, error) {
	s, setups, kernelMs, err := b.setups(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { s.d.kill() }() // the recovery check replaces s.d
	log.Printf("%s seed %d: set-up %.3fs (median of %d); driving %s after %s of warm-up", b.w.Name, b.seed, median(setups), len(setups), b.window, warmup)
	run := &e2eRun{dir: s.dir, setups: setups, setupKMs: kernelMs}
	if run.win, err = b.drive(ctx, s); err != nil {
		return nil, err
	}
	refs, err := b.checkReference(ctx, s)
	if err == nil {
		run.recovery, err = b.checkRecovery(ctx, s, refs)
	}
	run.checkErr = err
	return run, nil
}

// endToEndMetrics are the user-facing numbers of one run: the median and
// p90 latency of the workload's primary request kinds and the median of its
// secondary ones, daemon CPU per completed op, set-up time, and peak
// memory. Every time is scaled to the reference host's speed by the speed
// kernel's times in the same phase (see speed.go).
func endToEndMetrics(w workload, r *e2eRun) (map[string]metricValue, error) {
	if r.win.stats.measured == 0 {
		return nil, errors.New("no op of the window completed")
	}
	scale := speedScale(r.win.stats.kernelMs)
	primary := r.win.stats.latencies(w.Primary, false, scale)
	p90, ok := percentile(primary, 0.90)
	if !ok {
		log.Printf("warning: %d primary requests leave fewer than %d beyond their p90", len(primary), minBeyond)
	}
	m := map[string]metricValue{
		"setup_s":          {median(r.setups) * speedScale(r.setupKMs), "s"},
		"primary_p50_ms":   {median(primary), "ms"},
		"primary_p90_ms":   {p90, "ms"},
		"secondary_p50_ms": {median(r.win.stats.latencies(w.Secondary, false, scale)), "ms"},
		"cpu_ms_per_op":    {ms(r.win.cpu) / float64(r.win.stats.measured) * scale, "ms"},
		"rss_peak_mb":      {r.win.rssMB, "MB"},
	}
	log.Printf("host speed: kernel %.3f ms in the window (%d runs), %.3f ms in set-up; reference %.3f ms",
		speedRefMs/scale, len(r.win.stats.kernelMs), speedRefMs/speedScale(r.setupKMs), speedRefMs)
	return m, checkFinite(m)
}

// checkFinite rejects a metric set holding NaN or infinities.
func checkFinite(m map[string]metricValue) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// appendRecord appends one JSON line to path.
func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
