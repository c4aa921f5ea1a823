// Package experiment implements the paper's evaluation (§6): for every
// figure of the evaluation section there is a function that runs the
// corresponding workload over a dataset and returns the rows the paper
// plots, plus the ablation studies DESIGN.md calls out.
//
// Experiments are deterministic given the dataset seed and the Params'
// stream numbers, so runs are reproducible and comparable.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Params sets the scale of an experiment run. The paper's full scale (§6.1)
// is 25 trajectories per duration in {30, 60, 90, 120} minutes; Quick and
// Medium preserve every claim's shape (linearity in duration, constraint-set
// ordering, dataset ordering) at a fraction of the cost.
type Params struct {
	// Durations lists trajectory durations in timestamps (seconds).
	Durations []int
	// Trajectories is the number of trajectories per duration.
	Trajectories int
	// StayQueries is the number of random stay queries per trajectory
	// (the paper uses 100).
	StayQueries int
	// TrajQueries is the number of random trajectory queries per
	// trajectory (the paper uses 50).
	TrajQueries int
	// Mode is the end-of-window latency semantics; experiments default to
	// LenientEnd (Algorithm 1 as printed) because ground-truth
	// trajectories may legitimately end mid-stay.
	Mode constraints.EndLatencyMode
	// Stream decorrelates instance generation between experiments.
	Stream uint64
	// Workers bounds the number of goroutines used by experiments that
	// parallelize safely (accuracy and baseline workloads; timing
	// measurements always run serially). <= 1 means serial. Results are
	// deterministic regardless of the worker count: every instance has
	// its own random stream and results are reduced in a fixed order.
	Workers int
}

func (p Params) workers() int {
	if p.Workers <= 1 {
		return 1
	}
	return p.Workers
}

// Quick returns bench-sized parameters: 2-8 minute trajectories, 3 per
// duration.
func Quick() Params {
	return Params{
		Durations:    []int{120, 240, 360, 480},
		Trajectories: 3,
		StayQueries:  25,
		TrajQueries:  10,
		Mode:         constraints.LenientEnd,
		Workers:      defaultWorkers(),
	}
}

// defaultWorkers caps experiment parallelism at a modest level so timing
// numbers collected concurrently stay meaningful.
func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	return n
}

// Medium returns parameters an order of magnitude below the paper's.
func Medium() Params {
	return Params{
		Durations:    []int{600, 1200, 1800, 2400},
		Trajectories: 5,
		StayQueries:  50,
		TrajQueries:  25,
		Mode:         constraints.LenientEnd,
		Workers:      defaultWorkers(),
	}
}

// Full returns the paper's §6.1 scale. A full run over both datasets and all
// constraint sets takes hours.
func Full() Params {
	return Params{
		Durations:    dataset.Durations,
		Trajectories: dataset.TrajectoriesPerDuration,
		StayQueries:  100,
		TrajQueries:  50,
		Mode:         constraints.LenientEnd,
		Workers:      defaultWorkers(),
	}
}

func (p Params) validate() error {
	if len(p.Durations) == 0 {
		return fmt.Errorf("experiment: no durations")
	}
	for _, d := range p.Durations {
		if d <= 0 {
			return fmt.Errorf("experiment: non-positive duration %d", d)
		}
	}
	if p.Trajectories <= 0 {
		return fmt.Errorf("experiment: non-positive trajectory count")
	}
	return nil
}

// Table is a rendered experiment result: one header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 { // no trailing padding on the last column
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// buildGraph runs the cleaning pipeline for one instance under one
// constraint selection.
func buildGraph(d *dataset.Dataset, inst dataset.Instance, sel dataset.Selection, mode constraints.EndLatencyMode) (*core.Graph, error) {
	return buildWith(d, inst, sel, &core.Options{EndLatency: mode})
}

// buildWith is buildGraph with explicit build options.
func buildWith(d *dataset.Dataset, inst dataset.Instance, sel dataset.Selection, opts *core.Options) (*core.Graph, error) {
	ls, err := d.Prior.LSequence(inst.Readings)
	if err != nil {
		return nil, err
	}
	return core.Build(ls, d.Constraints(sel), opts)
}
