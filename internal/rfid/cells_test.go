package rfid

import (
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/stats"
)

// latticePlan builds a plan of 1–3 floors, each a grid of rooms with some
// slots left empty, whose edges lie on multiples of half the cell size from
// an origin on that lattice: many cell centres then fall exactly on an edge
// two rooms share, or on the edge of a room beside a gap.
func latticePlan(t *testing.T, rng *stats.RNG, cellSize float64) *floorplan.Plan {
	t.Helper()
	u := cellSize / 2
	b := floorplan.NewBuilder()
	ox, oy := u*float64(rng.IntRange(-20, 20)), u*float64(rng.IntRange(-20, 20))
	rooms := 0
	for f := rng.IntRange(1, 3) - 1; f >= 0; f-- {
		cols, rows := rng.IntRange(1, 4), rng.IntRange(1, 4)
		xs, ys := []float64{ox}, []float64{oy}
		for i := 0; i < cols; i++ {
			xs = append(xs, xs[i]+u*float64(rng.IntRange(1, 9)))
		}
		for j := 0; j < rows; j++ {
			ys = append(ys, ys[j]+u*float64(rng.IntRange(1, 9)))
		}
		for j := 0; j < rows; j++ {
			for i := 0; i < cols; i++ {
				if rooms > 0 && rng.Intn(4) == 0 {
					continue
				}
				rooms++
				bounds := geom.Rect{Min: geom.Pt(xs[i], ys[j]), Max: geom.Pt(xs[i+1], ys[j+1])}
				b.AddLocation(fmt.Sprintf("F%d.R%d.%d", f, i, j), floorplan.Room, f, bounds)
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCellSpaceMatchesLocationAt requires NewCellSpace to give every cell the
// location Plan.LocationAt gives its centre, and every location its cells in
// ascending order, over random plans: rooms of random sizes, and rooms on a
// lattice whose shared edges pass through cell centres.
func TestCellSpaceMatchesLocationAt(t *testing.T) {
	rng := stats.NewRNG(2017)
	trials := 400
	if testing.Short() {
		trials = 80
	}
	onEdge := 0
	for trial := 0; trial < trials; trial++ {
		var plan *floorplan.Plan
		cellSize := rng.Range(0.3, 1.2)
		if trial%2 == 0 {
			plan = randomPlan(t, rng)
		} else {
			cellSize = []float64{0.25, 0.5, 0.75, 1}[rng.Intn(4)]
			plan = latticePlan(t, rng, cellSize)
		}
		cs, err := NewCellSpace(plan, cellSize)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, plan.NumLocations())
		for c := 0; c < cs.NumCells(); c++ {
			floor, center := cs.CellCenter(c)
			loc := plan.LocationAt(floor, center)
			if got := cs.LocationOfCell(c); got != loc {
				t.Fatalf("trial %d: cell %d (floor %d, centre %v) in location %d, LocationAt says %d", trial, c, floor, center, got, loc)
			}
			if loc >= 0 {
				want[loc] = append(want[loc], c)
				if !plan.Location(loc).Bounds.ContainsStrict(center) {
					onEdge++
				}
			}
		}
		for loc := range want {
			got := cs.CellsOfLocation(loc)
			if len(got) != len(want[loc]) {
				t.Fatalf("trial %d: location %d has cells %v, want %v", trial, loc, got, want[loc])
			}
			for i := range got {
				if got[i] != want[loc][i] {
					t.Fatalf("trial %d: location %d has cells %v, want %v", trial, loc, got, want[loc])
				}
			}
		}
	}
	if onEdge == 0 {
		t.Fatal("no cell centre fell on a location's boundary; the lattice plans test nothing")
	}
	t.Logf("%d cell centres on a location boundary", onEdge)
}
