package query

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/stats"
)

func TestTransitionMatrixAgainstEnumeration(t *testing.T) {
	rng := stats.NewRNG(1717)
	for trial := 0; trial < 150; trial++ {
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
		got := e.TransitionMatrix()

		want := make([][]float64, 3)
		for i := range want {
			want[i] = make([]float64, 3)
		}
		err = g.WalkPaths(1<<20, func(path []int, p float64) {
			locs := pathLocs(g, path)
			for i := 0; i+1 < len(locs); i++ {
				want[locs[i]][locs[i+1]] += p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for a := range want {
			for b := range want[a] {
				if math.Abs(got[a][b]-want[a][b]) > 1e-9 {
					t.Fatalf("trial %d: T[%d][%d] = %v, want %v", trial, a, b, got[a][b], want[a][b])
				}
				total += got[a][b]
			}
		}
		if math.Abs(total-float64(len(dists)-1)) > 1e-9 {
			t.Fatalf("trial %d: transitions sum to %v, want %d", trial, total, len(dists)-1)
		}
	}
}

func TestEventsSegmentation(t *testing.T) {
	// Deterministic graph: 0,0,1,1,1,2.
	g := buildGraph(t, [][]float64{
		{1}, {1}, {0, 1}, {0, 1}, {0, 1}, {0, 0, 1},
	}, nil)
	e := NewEngine(g, 3)
	events := e.Events()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	want := []Event{
		{Loc: 0, From: 0, To: 1, Confidence: 1},
		{Loc: 1, From: 2, To: 4, Confidence: 1},
		{Loc: 2, From: 5, To: 5, Confidence: 1},
	}
	for i := range want {
		if events[i].Loc != want[i].Loc || events[i].From != want[i].From || events[i].To != want[i].To {
			t.Errorf("event %d = %v, want %v", i, events[i], want[i])
		}
		if math.Abs(events[i].Confidence-1) > 1e-9 {
			t.Errorf("event %d confidence = %v", i, events[i].Confidence)
		}
	}
	if events[1].Duration() != 3 {
		t.Errorf("Duration = %d", events[1].Duration())
	}
	if !strings.Contains(events[0].String(), "L0@[0,1]") {
		t.Errorf("String = %q", events[0].String())
	}
}

func TestEventsCoverWindow(t *testing.T) {
	rng := stats.NewRNG(818)
	for trial := 0; trial < 50; trial++ {
		dists := make([][]float64, rng.IntRange(1, 8))
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
		g, err := core.Build(core.FromDistributions(dists), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, 3)
		events := e.Events()
		// Events tile [0, duration) exactly.
		next := 0
		for _, ev := range events {
			if ev.From != next {
				t.Fatalf("trial %d: gap before event %v", trial, ev)
			}
			if ev.Confidence <= 0 || ev.Confidence > 1+1e-9 {
				t.Fatalf("trial %d: confidence %v", trial, ev.Confidence)
			}
			next = ev.To + 1
		}
		if next != len(dists) {
			t.Fatalf("trial %d: events end at %d, want %d", trial, next, len(dists))
		}
	}
}
