package rfidclean

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// FuzzDecodeDeployment feeds arbitrary bytes to DecodeDeployment (and so to
// floorplan.Decode). It must never panic; every deployment it accepts must
// re-encode to a fixed point — the property EncodeBytes documents for
// persistence — and must instantiate within the grid, detection-matrix and
// calibration bounds validate enforces.
func FuzzDecodeDeployment(f *testing.F) {
	for _, name := range []string{"SYN1", "SYN2"} {
		cfg := dataset.SYN1()
		if name == "SYN2" {
			cfg = dataset.SYN2()
		}
		d, err := dataset.Build(name, cfg)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := (&Deployment{
			Name: name, Plan: d.Plan, Readers: d.Readers,
			Detection: cfg.Detection, CellSize: cfg.CellSize,
			CalibrationSamples: cfg.CalibrationSamples, Seed: cfg.Seed,
		}).EncodeBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(rowDeployment(f, 0.5))
	// The same rooms at a 0.1 mm grid: 1.8e10 cells, rejected by validate.
	f.Add(rowDeployment(f, 1e-4))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeployment(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := d.EncodeBytes()
		if err != nil {
			t.Fatalf("accepted deployment does not encode: %v", err)
		}
		back, err := DecodeDeployment(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding an encoded deployment: %v\n%s", err, enc)
		}
		again, err := back.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
		}
		grid, err := geom.NewGrid(d.Plan.Outline(), d.CellSize)
		if err != nil {
			return // NewSystem refuses it before allocating
		}
		cells := grid.NumCells() * d.Plan.NumFloors()
		entries := cells * len(d.Readers)
		if cells > maxGridCells || entries > maxDetectionEntries || entries*d.CalibrationSamples > maxCalibrationDraws {
			t.Fatalf("accepted deployment over the bounds: %d cells, %d readers, %d samples",
				cells, len(d.Readers), d.CalibrationSamples)
		}
	})
}

// rowDeployment is three 10x6 m rooms in a row with a reader at each end.
func rowDeployment(f *testing.F, cellSize float64) []byte {
	b := NewMapBuilder()
	ra := b.AddLocation("a", Room, 0, RectWH(0, 0, 10, 6))
	rb := b.AddLocation("b", Room, 0, RectWH(10, 0, 10, 6))
	rc := b.AddLocation("c", Room, 0, RectWH(20, 0, 10, 6))
	b.AddDoor(ra, rb, Pt(10, 3), 1)
	b.AddDoor(rb, rc, Pt(20, 3), 1)
	plan, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := (&Deployment{
		Name: "row",
		Plan: plan,
		Readers: []Reader{
			{ID: 0, Name: "r-a", Floor: 0, Pos: Pt(5, 3)},
			{ID: 1, Name: "r-c", Floor: 0, Pos: Pt(25, 3)},
		},
		Detection:          DefaultThreeState(),
		CellSize:           cellSize,
		CalibrationSamples: 30,
		Seed:               3,
	}).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	return raw
}
