package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/stats"
)

// CleaningResult is one point of Fig. 8(a)/8(b): the average cleaning time
// for one (dataset, constraint set, duration) combination, plus the graph
// sizes §6.7 reports.
type CleaningResult struct {
	Dataset   string
	Selection dataset.Selection
	Duration  int // timestamps

	Trajectories int
	Skipped      int // instances where cleaning found no valid trajectory

	MeanSeconds    float64
	MeanNodes      float64
	MeanNodesBuilt float64 // nodes the forward phase built, removed ones included
	MeanEdges      float64
	MeanBytes      float64

	// The same for the quotient of each graph (core.Graph.Quotient), the
	// form the server stores: the pass's time and the quotient's size.
	MeanQuotientSeconds float64
	MeanQuotientNodes   float64
	MeanQuotientBytes   float64

	// The serving build: core.Build with Options.Quotient, whose forward
	// phase drops dominated TL entries and which returns the quotient
	// (DESIGN §3n). Its time includes the l-sequence, like MeanSeconds, and
	// the quotient pass.
	MeanServedSeconds    float64
	MeanServedNodesBuilt float64
}

// CleaningCost measures the average running time of the ct-graph
// construction (CTG in the paper's notation) over the dataset, for every
// constraint set and duration — the workload of Fig. 8(a) and 8(b). The
// same measurements yield the ct-graph sizes of §6.7. Every instance is
// also cleaned by the serving build, whose quotient must encode byte for
// byte like the quotient of Algorithm 1's graph: a difference is an error.
func CleaningCost(d *dataset.Dataset, p Params) ([]CleaningResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	var out []CleaningResult
	for _, dur := range p.Durations {
		insts, err := d.Generate(dur, p.Trajectories, p.Stream)
		if err != nil {
			return nil, err
		}
		for _, sel := range dataset.Selections {
			res := CleaningResult{
				Dataset: d.Name, Selection: sel, Duration: dur,
				Trajectories: len(insts),
			}
			var secs, nodes, built, edges, sizes, qsecs, qnodes, qbytes, ssecs, sbuilt []float64
			for _, inst := range insts {
				var ex, sex core.BuildExplain
				start := time.Now()
				g, err := buildWith(d, inst, sel, &core.Options{EndLatency: p.Mode, Explain: &ex})
				elapsed := time.Since(start).Seconds()
				start = time.Now()
				served, servedErr := buildWith(d, inst, sel, &core.Options{EndLatency: p.Mode, Explain: &sex, Quotient: true})
				servedElapsed := time.Since(start).Seconds()
				if (err == nil) != (servedErr == nil) {
					return nil, fmt.Errorf("experiment: %s %v %d s: build err %v, served build err %v", d.Name, sel, dur, err, servedErr)
				}
				if errors.Is(err, core.ErrNoValidTrajectory) {
					res.Skipped++
					continue
				}
				if err != nil {
					return nil, err
				}
				secs = append(secs, elapsed)
				st := g.Stats()
				nodes = append(nodes, float64(st.Nodes))
				built = append(built, float64(nodesBuilt(&ex)))
				edges = append(edges, float64(st.Edges))
				sizes = append(sizes, float64(st.Bytes))
				start = time.Now()
				q := g.Quotient()
				qsecs = append(qsecs, time.Since(start).Seconds())
				qs := q.Stats()
				qnodes = append(qnodes, float64(qs.Nodes))
				qbytes = append(qbytes, float64(qs.Bytes))
				if same, err := sameEncoding(q, served); err != nil || !same {
					return nil, fmt.Errorf("experiment: %s %v %d s: served build differs from the quotient of the build (%v)", d.Name, sel, dur, err)
				}
				ssecs = append(ssecs, servedElapsed)
				sbuilt = append(sbuilt, float64(nodesBuilt(&sex)))
			}
			res.MeanSeconds = stats.Mean(secs)
			res.MeanNodes = stats.Mean(nodes)
			res.MeanNodesBuilt = stats.Mean(built)
			res.MeanEdges = stats.Mean(edges)
			res.MeanBytes = stats.Mean(sizes)
			res.MeanQuotientSeconds = stats.Mean(qsecs)
			res.MeanQuotientNodes = stats.Mean(qnodes)
			res.MeanQuotientBytes = stats.Mean(qbytes)
			res.MeanServedSeconds = stats.Mean(ssecs)
			res.MeanServedNodesBuilt = stats.Mean(sbuilt)
			out = append(out, res)
		}
	}
	return out, nil
}

// nodesBuilt sums the nodes an explained build created over its steps.
func nodesBuilt(ex *core.BuildExplain) int {
	n := 0
	for _, st := range ex.Steps {
		n += st.NodesBuilt
	}
	return n
}

// sameEncoding reports whether a and b encode to the same bytes.
func sameEncoding(a, b *core.Graph) (bool, error) {
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		return false, err
	}
	if err := b.Encode(&bb); err != nil {
		return false, err
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes()), nil
}

// CleaningTable renders cleaning-cost results as the series of Fig. 8(a)/(b).
func CleaningTable(results []CleaningResult) *Table {
	t := &Table{
		Title: "Fig. 8(a)/(b) — average cleaning time (seconds) vs trajectory duration",
		Header: []string{"dataset", "constraints", "duration(s)", "mean time(s)", "nodes", "nodes built", "edges", "size(MB)", "quotient time(s)",
			"served time(s)", "served nodes built", "skipped"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Dataset,
			"CTG(" + r.Selection.String() + ")",
			fmt.Sprintf("%d", r.Duration),
			fmt.Sprintf("%.4f", r.MeanSeconds),
			fmt.Sprintf("%.0f", r.MeanNodes),
			fmt.Sprintf("%.0f", r.MeanNodesBuilt),
			fmt.Sprintf("%.0f", r.MeanEdges),
			fmt.Sprintf("%.2f", r.MeanBytes/1e6),
			fmt.Sprintf("%.4f", r.MeanQuotientSeconds),
			fmt.Sprintf("%.4f", r.MeanServedSeconds),
			fmt.Sprintf("%.0f", r.MeanServedNodesBuilt),
			fmt.Sprintf("%d", r.Skipped),
		})
	}
	return t
}

// GraphSizeTable renders the §6.7 comparison: ct-graph memory for the
// longest duration under DU-only vs all constraints, for Algorithm 1's graph
// and for its quotient.
func GraphSizeTable(results []CleaningResult) *Table {
	t := &Table{
		Title:  "§6.7 — ct-graph size at the longest duration",
		Header: []string{"dataset", "constraints", "duration(s)", "size(MB)", "nodes", "quotient size(MB)", "quotient nodes"},
	}
	maxDur := 0
	for _, r := range results {
		if r.Duration > maxDur {
			maxDur = r.Duration
		}
	}
	for _, r := range results {
		if r.Duration != maxDur {
			continue
		}
		t.Rows = append(t.Rows, []string{
			r.Dataset,
			"CTG(" + r.Selection.String() + ")",
			fmt.Sprintf("%d", r.Duration),
			fmt.Sprintf("%.3f", r.MeanBytes/1e6),
			fmt.Sprintf("%.0f", r.MeanNodes),
			fmt.Sprintf("%.3f", r.MeanQuotientBytes/1e6),
			fmt.Sprintf("%.0f", r.MeanQuotientNodes),
		})
	}
	return t
}

// QueryCostResult is one point of Fig. 8(c): average query execution time
// over cleaned data.
type QueryCostResult struct {
	Dataset   string
	Selection dataset.Selection
	Duration  int

	MeanStaySeconds float64
	MeanTrajSeconds float64
	// The same queries over the quotient of each graph.
	MeanQuotientStaySeconds float64
	MeanQuotientTrajSeconds float64
	Skipped                 int
}

// QueryCost measures average stay- and trajectory-query times over the
// ct-graphs built from the dataset (Fig. 8(c)). Query workloads follow
// §6.6: random time points for stay queries, random 2-4 anchor patterns for
// trajectory queries.
func QueryCost(d *dataset.Dataset, p Params) ([]QueryCostResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	locIDs := allLocationIDs(d)
	var out []QueryCostResult
	for _, dur := range p.Durations {
		insts, err := d.Generate(dur, p.Trajectories, p.Stream)
		if err != nil {
			return nil, err
		}
		for _, sel := range dataset.Selections {
			res := QueryCostResult{Dataset: d.Name, Selection: sel, Duration: dur}
			var staySecs, trajSecs, qStaySecs, qTrajSecs []float64
			rng := stats.NewRNG(d.Config.Seed ^ uint64(dur)<<16 ^ uint64(sel))
			for _, inst := range insts {
				g, err := buildGraph(d, inst, sel, p.Mode)
				if errors.Is(err, core.ErrNoValidTrajectory) {
					res.Skipped++
					continue
				}
				if err != nil {
					return nil, err
				}
				taus := make([]int, p.StayQueries)
				for q := range taus {
					taus[q] = rng.Intn(dur)
				}
				pats := make([]query.Pattern, p.TrajQueries)
				for q := range pats {
					pats[q] = query.RandomPattern(rng, locIDs, rng.IntRange(2, 4))
				}
				stay, traj, err := timeQueries(query.NewEngine(g, d.Plan.NumLocations()), taus, pats)
				if err != nil {
					return nil, err
				}
				staySecs, trajSecs = append(staySecs, stay), append(trajSecs, traj)
				stay, traj, err = timeQueries(query.NewEngine(g.Quotient(), d.Plan.NumLocations()), taus, pats)
				if err != nil {
					return nil, err
				}
				qStaySecs, qTrajSecs = append(qStaySecs, stay), append(qTrajSecs, traj)
			}
			res.MeanStaySeconds = stats.Mean(staySecs)
			res.MeanTrajSeconds = stats.Mean(trajSecs)
			res.MeanQuotientStaySeconds = stats.Mean(qStaySecs)
			res.MeanQuotientTrajSeconds = stats.Mean(qTrajSecs)
			out = append(out, res)
		}
	}
	return out, nil
}

// timeQueries runs the stay queries at taus and the trajectory queries pats
// on eng and returns the mean seconds per query of each kind.
func timeQueries(eng *query.Engine, taus []int, pats []query.Pattern) (stay, traj float64, err error) {
	start := time.Now()
	for _, tau := range taus {
		if _, err := eng.Stay(tau); err != nil {
			return 0, 0, err
		}
	}
	stay = time.Since(start).Seconds() / float64(len(taus))
	start = time.Now()
	for _, pat := range pats {
		if _, err := eng.Trajectory(pat); err != nil {
			return 0, 0, err
		}
	}
	return stay, time.Since(start).Seconds() / float64(len(pats)), nil
}

// QueryCostTable renders query-cost results (Fig. 8(c)), over Algorithm 1's
// graphs and over their quotients.
func QueryCostTable(results []QueryCostResult) *Table {
	t := &Table{
		Title: "Fig. 8(c) — average query time (seconds) vs trajectory duration",
		Header: []string{"dataset", "constraints", "duration(s)", "stay query(s)", "trajectory query(s)",
			"quotient stay(s)", "quotient trajectory(s)", "skipped"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Dataset,
			"CTG(" + r.Selection.String() + ")",
			fmt.Sprintf("%d", r.Duration),
			fmt.Sprintf("%.6f", r.MeanStaySeconds),
			fmt.Sprintf("%.6f", r.MeanTrajSeconds),
			fmt.Sprintf("%.6f", r.MeanQuotientStaySeconds),
			fmt.Sprintf("%.6f", r.MeanQuotientTrajSeconds),
			fmt.Sprintf("%d", r.Skipped),
		})
	}
	return t
}

func allLocationIDs(d *dataset.Dataset) []int {
	ids := make([]int, d.Plan.NumLocations())
	for i := range ids {
		ids[i] = i
	}
	return ids
}
