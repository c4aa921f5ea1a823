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
				if math.Float64bits(got.Rate(ri, c)) != math.Float64bits(want) {
					t.Fatalf("trial %d, model %+v, reader %+v, cell %d (floor %d, centre %v): got %v, full scan %v",
						trial, model, r, c, floor, center, got.Rate(ri, c), want)
				}
			}
		}
	}
}

// denseCalibrate is Calibrate over dense rows: every reader, every cell, in
// order, drawing for each entry with a positive rate.
func denseCalibrate(truth *Matrix, samples int, rng *stats.RNG) [][]float64 {
	if samples <= 0 {
		samples = 1
	}
	rows := make([][]float64, len(truth.Readers))
	for ri := range rows {
		rows[ri] = make([]float64, truth.Cells.NumCells())
		for c := range rows[ri] {
			p := truth.Rate(ri, c)
			if p <= 0 {
				continue
			}
			hits := 0
			for s := 0; s < samples; s++ {
				if rng.Bernoulli(p) {
					hits++
				}
			}
			rows[ri][c] = float64(hits) / float64(samples)
		}
	}
	return rows
}

// TestCalibrateMatchesDenseReference requires Calibrate over the spans to
// equal, bit for bit, the dense reference from the same seed, and to leave
// the generator where the reference leaves it, over the random plans,
// readers and models of TestTruthMatrixMatchesFullScan.
func TestCalibrateMatchesDenseReference(t *testing.T) {
	rng := stats.NewRNG(2015)
	trials := 150
	if testing.Short() {
		trials = 30
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
		truth := NewTruthMatrix(cs, readers, randomModel(rng))
		samples, seed := rng.IntRange(-1, 40), rng.Uint64()
		gotRNG, wantRNG := stats.NewRNG(seed), stats.NewRNG(seed)
		got := Calibrate(truth, samples, gotRNG)
		want := denseCalibrate(truth, samples, wantRNG)
		for ri := range readers {
			f, row := got.Row(ri)
			tf, trow := truth.Row(ri)
			if f != tf || len(row) != len(trow) {
				t.Fatalf("trial %d: reader %d's calibrated span differs from its truth span", trial, ri)
			}
			for c := 0; c < cs.NumCells(); c++ {
				if math.Float64bits(got.Rate(ri, c)) != math.Float64bits(want[ri][c]) {
					t.Fatalf("trial %d, samples %d, reader %d, cell %d: got %v, dense %v",
						trial, samples, ri, c, got.Rate(ri, c), want[ri][c])
				}
			}
		}
		if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
			t.Fatalf("trial %d: Calibrate drew a different number of samples than the dense reference", trial)
		}
	}
}

// TestMatrixBytes: Bytes counts 8 bytes per stored rate plus the span table,
// and the stored rates are exactly the spans.
func TestMatrixBytes(t *testing.T) {
	rng := stats.NewRNG(2016)
	for trial := 0; trial < 50; trial++ {
		plan := randomPlan(t, rng)
		cs, err := NewCellSpace(plan, rng.Range(0.3, 1.2))
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]Reader, rng.IntRange(1, 8))
		for i := range readers {
			readers[i] = randomReader(i, cs, rng)
		}
		m := NewTruthMatrix(cs, readers, randomModel(rng))
		stored := 0
		for ri := range readers {
			_, row := m.Row(ri)
			if len(row) > 0 && (math.Float64bits(row[0]) == 0 || math.Float64bits(row[len(row)-1]) == 0) {
				t.Fatalf("trial %d: reader %d's span does not start and end on a non-zero entry", trial, ri)
			}
			stored += len(row)
		}
		if want := 8*stored + 16*len(readers) + 8; m.Bytes() != want {
			t.Fatalf("trial %d: Bytes = %d, want %d", trial, m.Bytes(), want)
		}
	}
}
