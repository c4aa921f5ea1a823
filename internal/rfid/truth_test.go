package rfid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/stats"
)

// randomPlan builds a plan of 1–3 floors, each a row of rooms of random
// widths and a per-floor height, joined by doors at random heights and by
// stairs between the first rooms of adjacent floors. The building's origin is
// offset at random so the grid region does not start at (0, 0).
func randomPlan(t *testing.T, rng *stats.RNG) *floorplan.Plan {
	t.Helper()
	b := floorplan.NewBuilder()
	ox, oy := rng.Range(-20, 20), rng.Range(-20, 20)
	floors := rng.IntRange(1, 3)
	prevFirst := -1
	for f := 0; f < floors; f++ {
		h := rng.Range(3, 9)
		x, prev := ox, -1
		for k := rng.IntRange(1, 5); k > 0; k-- {
			w := rng.Range(1.5, 6)
			id := b.AddLocation(fmt.Sprintf("F%d.R%d", f, k), floorplan.Room, f, geom.RectWH(x, oy, w, h))
			if prev >= 0 {
				b.AddDoor(prev, id, geom.Pt(x, oy+rng.Range(0.6, h-0.6)), rng.Range(0.5, 1.2))
			} else {
				if prevFirst >= 0 {
					b.AddStairs(prevFirst, id, geom.Pt(x+0.5, oy+0.5), geom.Pt(x+0.5, oy+0.5), 4)
				}
				prevFirst = id
			}
			prev = id
			x += w
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomReader places a reader where a reach-limited scan is most likely to
// disagree with the full one: anywhere in and around the outline, on a wall,
// on a cell boundary, at a cell centre, or on a floor the plan lacks.
func randomReader(id int, cs *CellSpace, rng *stats.RNG) Reader {
	plan, g := cs.Plan, cs.Grid
	out := plan.Outline()
	r := Reader{ID: id, Floor: rng.Intn(plan.NumFloors())}
	switch rng.Intn(6) {
	case 0: // in or around the outline
		r.Pos = geom.Pt(rng.Range(out.Min.X-6, out.Max.X+6), rng.Range(out.Min.Y-6, out.Max.Y+6))
	case 1: // on a wall of its floor
		walls := plan.Walls()
		w := walls[rng.Intn(len(walls))]
		r.Floor, r.Pos = w.Floor, w.Seg.At(rng.Float64())
	case 2: // on a cell corner
		r.Pos = geom.Pt(g.Region.Min.X+float64(rng.IntRange(-2, g.Cols+2))*g.CellSize,
			g.Region.Min.Y+float64(rng.IntRange(-2, g.Rows+2))*g.CellSize)
	case 3: // at a cell centre
		r.Pos = g.CellCenter(rng.Intn(g.NumCells()))
	case 4: // on a floor the plan lacks
		r.Floor = []int{-1, plan.NumFloors(), plan.NumFloors() + 3}[rng.Intn(3)]
		r.Pos = out.Center()
	default: // far outside the outline
		r.Pos = geom.Pt(out.Max.X+rng.Range(4, 50), out.Min.Y-rng.Range(4, 50))
	}
	return r
}

// randomModel draws a detection model, mixing ordinary parameters with the
// edge values: a minor radius below the major one, zero and 1e300 radii, NaN
// radii, and wall factors of exactly 0 and 1.
func randomModel(rng *stats.RNG) ThreeState {
	m := ThreeState{
		MajorRadius: rng.Range(0, 5),
		MinorRadius: rng.Range(0, 8),
		MajorRate:   rng.Range(0.05, 1),
		WallFactor:  rng.Float64(),
	}
	switch rng.Intn(8) {
	case 0:
		m.MajorRadius, m.MinorRadius = 0, 0
	case 1:
		m.MajorRadius = 1e300
	case 2:
		m.MinorRadius = 1e300
	case 3:
		m.MajorRadius = math.NaN()
	case 4:
		m.MajorRadius, m.MinorRadius = math.NaN(), math.NaN()
	}
	switch rng.Intn(4) {
	case 0:
		m.WallFactor = 0
	case 1:
		m.WallFactor = 1
	}
	return m
}

// TestTruthMatrixMatchesFullScan requires NewTruthMatrix to equal, bit for
// bit, the full scan that evaluates Rate at the centre of every cell of every
// floor for every reader, over random plans, cell sizes, readers and models.
func TestTruthMatrixMatchesFullScan(t *testing.T) {
	rng := stats.NewRNG(2014)
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		plan := randomPlan(t, rng)
		cs, err := NewCellSpace(plan, rng.Range(0.3, 1.2))
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]Reader, rng.IntRange(1, 8))
		for i := range readers {
			readers[i] = randomReader(i, cs, rng)
		}
		model := randomModel(rng)
		got := NewTruthMatrix(cs, readers, model)
		for ri, r := range readers {
			for c := 0; c < cs.NumCells(); c++ {
				floor, center := cs.CellCenter(c)
				want := model.Rate(plan, r, floor, center)
				if math.Float64bits(got.Rates[ri][c]) != math.Float64bits(want) {
					t.Fatalf("trial %d, model %+v, reader %+v, cell %d (floor %d, centre %v): got %v, full scan %v",
						trial, model, r, c, floor, center, got.Rates[ri][c], want)
				}
			}
		}
	}
}
