// Command rfidclean cleans RFID reading logs produced by cmd/datagen: it
// rebuilds the dataset's prior and integrity constraints, conditions each
// reading sequence on the constraints (building the ct-graph), and answers
// queries over the cleaned data.
//
// Usage:
//
//	datagen -dataset SYN1 -duration 300 -count 2 -o in.json
//	rfidclean -in in.json -constraints DU+LT -stay 60,150 -pattern "? F0.L1[10] ?"
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	rfidclean "repro"
	"repro/internal/constraints"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidclean: ")

	var (
		in      = flag.String("in", "", "instance file from cmd/datagen (required)")
		selName = flag.String("constraints", "DU+LT+TT", "constraint set: DU, DU+LT or DU+LT+TT")
		stays   = flag.String("stay", "", "comma-separated timestamps for stay queries")
		pattern = flag.String("pattern", "", "trajectory-pattern query, e.g. \"? F0.L1[10] ?\"")
		top     = flag.Bool("top", true, "print the most probable trajectory summary")
		samples = flag.Int("samples", 0, "sample N valid trajectories and report location utilization")
		strict  = flag.Bool("strict-end", false, "use Definition 2's strict end-of-window latency semantics")
		render  = flag.Bool("render", false, "render each floor as ASCII art shaded by expected occupancy")
		workers = flag.Int("workers", 1, "build ct-graphs for the instances concurrently (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	file, err := dataset.Load(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	sel, err := dataset.SelectionByName(*selName)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := dataset.ConfigByName(file.Dataset)
	if err != nil {
		log.Fatal(err)
	}
	d, err := dataset.Build(file.Dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ic := d.Constraints(sel)
	mode := constraints.LenientEnd
	if *strict {
		mode = constraints.StrictEnd
	}

	// Clean every instance first — concurrently when -workers allows it —
	// then report in input order.
	readings := make([]rfidclean.ReadingSequence, len(file.Instances))
	for i, inst := range file.Instances {
		readings[i] = inst.Readings
	}
	sys := &rfidclean.System{Plan: d.Plan, Prior: d.Prior}
	cleaned, cleanErrs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{
		Build:   &rfidclean.BuildOptions{EndLatency: mode},
		Workers: *workers,
	})

	for i, inst := range file.Instances {
		fmt.Printf("=== instance %d (%d s, %s, %s) ===\n", i, inst.Duration, file.Dataset, sel)
		if err := cleanErrs[i]; err != nil {
			if errors.Is(err, rfidclean.ErrNoValidTrajectory) {
				fmt.Println("  readings are inconsistent with the constraints; nothing to clean")
				continue
			}
			log.Fatal(err)
		}
		c := cleaned[i]
		st := c.Stats()
		fmt.Printf("  ct-graph: %d nodes, %d edges, ~%.1f KB\n", st.Nodes, st.Edges, float64(st.Bytes)/1024)

		for _, tauStr := range splitNonEmpty(*stays) {
			tau, err := strconv.Atoi(strings.TrimSpace(tauStr))
			if err != nil {
				log.Fatalf("bad -stay timestamp %q", tauStr)
			}
			dist, err := c.StayDistribution(tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  stay t=%d: %s", tau, topK(dist, d, 3))
			if tau >= 0 && tau < len(inst.TruthLocations) {
				truth := inst.TruthLocations[tau]
				fmt.Printf("   [truth %s, accuracy %.3f]",
					d.Plan.Location(truth).Name, query.StayAccuracy(dist, truth))
			}
			fmt.Println()
		}

		if *pattern != "" {
			pat, err := query.ParsePattern(*pattern, func(name string) (int, error) {
				l, ok := d.Plan.LocationByName(name)
				if !ok {
					return 0, fmt.Errorf("unknown location %q", name)
				}
				return l.ID, nil
			})
			if err != nil {
				log.Fatal(err)
			}
			p, err := c.MatchProbability(pat)
			if err != nil {
				log.Fatal(err)
			}
			truthYes, err := query.Matches(pat, inst.TruthLocations)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  pattern %q: P(yes) = %.4f   [truth %v, accuracy %.3f]\n",
				*pattern, p, truthYes, query.TrajectoryAccuracy(p, truthYes))
		}

		if *top {
			locs, p := c.MostProbable()
			fmt.Printf("  most probable trajectory (p=%.3g): %s\n", p, runs(locs, d))
			correct := 0
			for t, l := range locs {
				if l == inst.TruthLocations[t] {
					correct++
				}
			}
			fmt.Printf("  viterbi step accuracy: %.3f\n", float64(correct)/float64(len(locs)))
		}

		if *render {
			occ := make([]float64, d.Plan.NumLocations())
			for loc := range occ {
				v, err := c.ExpectedVisitTime(d.Plan.Location(loc).Name, 0, inst.Duration-1)
				if err != nil {
					log.Fatal(err)
				}
				occ[loc] = v
			}
			for f := 0; f < d.Plan.NumFloors(); f++ {
				var readerPts []geom.Point
				for _, rd := range d.Readers {
					if rd.Floor == f {
						readerPts = append(readerPts, rd.Pos)
					}
				}
				fmt.Print(viz.RenderFloor(d.Plan, f, viz.Options{
					Intensity: occ,
					Readers:   readerPts,
					Labels:    true,
				}))
			}
			fmt.Println("  " + viz.Legend("expected occupancy"))
		}

		if *samples > 0 {
			rng := stats.NewRNG(1)
			sec := make([]float64, d.Plan.NumLocations())
			for s := 0; s < *samples; s++ {
				for _, l := range c.Sample(rng) {
					sec[l]++
				}
			}
			fmt.Printf("  sampled utilization (%d samples): %s\n", *samples, topK(normalize(sec), d, 5))
		}
	}
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func normalize(xs []float64) []float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	if total == 0 {
		return xs
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// topK renders the k most probable locations of a distribution.
func topK(dist []float64, d *dataset.Dataset, k int) string {
	type entry struct {
		loc int
		p   float64
	}
	var entries []entry
	for loc, p := range dist {
		if p > 0 {
			entries = append(entries, entry{loc, p})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].p > entries[j].p })
	if len(entries) > k {
		entries = entries[:k]
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%s %.3f", d.Plan.Location(e.loc).Name, e.p)
	}
	return strings.Join(parts, ", ")
}

// runs renders a trajectory as location runs.
func runs(locs []int, d *dataset.Dataset) string {
	var b strings.Builder
	start := 0
	for i := 1; i <= len(locs); i++ {
		if i == len(locs) || locs[i] != locs[start] {
			if start > 0 {
				b.WriteString(" -> ")
			}
			fmt.Fprintf(&b, "%s x%d", d.Plan.Location(locs[start]).Name, i-start)
			start = i
		}
	}
	return b.String()
}
