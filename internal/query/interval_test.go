package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/stats"
)

func TestEverInAgainstEnumeration(t *testing.T) {
	rng := stats.NewRNG(4321)
	for trial := 0; trial < 200; trial++ {
		dists := make([][]float64, rng.IntRange(2, 5))
		for tau := range dists {
			row := make([]float64, 3)
			total := 0.0
			for l := range row {
				row[l] = rng.Range(0.05, 1)
				total += row[l]
			}
			for l := range row {
				row[l] /= total
			}
			dists[tau] = row
		}
		ic := constraints.NewSet()
		if rng.Bernoulli(0.5) {
			ic.AddDU(rng.Intn(3), rng.Intn(3))
		}
		g, err := core.Build(core.FromDistributions(dists), ic, nil)
		if errors.Is(err, core.ErrNoValidTrajectory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, 3)
		loc := rng.Intn(3)
		from := rng.Intn(len(dists))
		to := rng.IntRange(from, len(dists)-1)

		got, err := e.EverIn(loc, from, to)
		if err != nil {
			t.Fatal(err)
		}
		wantEver := 0.0
		wantTime := 0.0
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			locs, hit := pathLocs(g, path), false
			for tau := from; tau <= to; tau++ {
				if locs[tau] == loc {
					hit = true
					wantTime += p
				}
			}
			if hit {
				wantEver += p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantEver) > 1e-9 {
			t.Fatalf("trial %d: EverIn(%d, %d, %d) = %v, want %v", trial, loc, from, to, got, wantEver)
		}
		gotTime, err := e.ExpectedVisitTime(loc, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotTime-wantTime) > 1e-9 {
			t.Fatalf("trial %d: ExpectedVisitTime = %v, want %v", trial, gotTime, wantTime)
		}
	}
}

func TestIntervalQueryValidation(t *testing.T) {
	g := buildGraph(t, [][]float64{{1}, {1}}, nil)
	e := NewEngine(g, 1)
	if _, err := e.EverIn(0, 1, 0); err == nil {
		t.Errorf("inverted interval accepted")
	}
	if _, err := e.EverIn(0, -1, 0); err == nil {
		t.Errorf("negative start accepted")
	}
	if _, err := e.EverIn(0, 0, 5); err == nil {
		t.Errorf("overlong interval accepted")
	}
	if _, err := e.ExpectedVisitTime(0, 1, 0); err == nil {
		t.Errorf("inverted interval accepted")
	}
	if _, err := e.ExpectedVisitTime(0, 0, 9); err == nil {
		t.Errorf("overlong interval accepted")
	}
	// Certain cases.
	p, err := e.EverIn(0, 0, 1)
	if err != nil || p != 1 {
		t.Errorf("certain EverIn = %v, %v", p, err)
	}
	tm, err := e.ExpectedVisitTime(0, 0, 1)
	if err != nil || math.Abs(tm-2) > 1e-12 {
		t.Errorf("certain ExpectedVisitTime = %v, %v", tm, err)
	}
}
