package gen

import (
	"testing"

	"repro/internal/constraints"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/rfid"
	"repro/internal/stats"
)

// testBuilding returns a two-floor building: each floor has a corridor and
// two rooms; stairwells connect the floors.
func testBuilding(t *testing.T) *floorplan.Plan {
	t.Helper()
	b := floorplan.NewBuilder()
	var stairs [2]int
	for f := 0; f < 2; f++ {
		cor := b.AddLocation(name("corridor", f), floorplan.Corridor, f, geom.RectWH(0, 0, 14, 3))
		r0 := b.AddLocation(name("R0", f), floorplan.Room, f, geom.RectWH(0, 3, 5, 5))
		r1 := b.AddLocation(name("R1", f), floorplan.Room, f, geom.RectWH(5, 3, 5, 5))
		st := b.AddLocation(name("stairs", f), floorplan.Stairwell, f, geom.RectWH(10, 3, 4, 5))
		b.AddDoor(cor, r0, geom.Pt(2.5, 3), 1)
		b.AddDoor(cor, r1, geom.Pt(7.5, 3), 1)
		b.AddDoor(cor, st, geom.Pt(12, 3), 1)
		stairs[f] = st
	}
	b.AddStairs(stairs[0], stairs[1], geom.Pt(12, 5.5), geom.Pt(12, 5.5), 6)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func name(base string, floor int) string {
	return base + "-" + string(rune('0'+floor))
}

func TestConfigValidation(t *testing.T) {
	plan := testBuilding(t)
	rng := stats.NewRNG(1)
	bad := []TrajectoryConfig{
		{},
		{Duration: -5, MinSpeed: 1, MaxSpeed: 2, MinStay: 30, MaxStay: 60, PassMinStay: 2, PassMaxStay: 5},
		{Duration: 10, MinSpeed: 0, MaxSpeed: 2, MinStay: 30, MaxStay: 60, PassMinStay: 2, PassMaxStay: 5},
		{Duration: 10, MinSpeed: 2, MaxSpeed: 1, MinStay: 30, MaxStay: 60, PassMinStay: 2, PassMaxStay: 5},
		{Duration: 10, MinSpeed: 1, MaxSpeed: 2, MinStay: 0, MaxStay: 60, PassMinStay: 2, PassMaxStay: 5},
		{Duration: 10, MinSpeed: 1, MaxSpeed: 2, MinStay: 30, MaxStay: 60, PassMinStay: 0, PassMaxStay: 5},
	}
	for i, cfg := range bad {
		if _, err := GenerateTrajectory(plan, cfg, rng); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTrajectoryShape(t *testing.T) {
	plan := testBuilding(t)
	rng := stats.NewRNG(42)
	cfg := NewConfig(600)
	traj, err := GenerateTrajectory(plan, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Duration() != 600 {
		t.Fatalf("duration = %d", traj.Duration())
	}
	for i, p := range traj.Points {
		if p.Time != i {
			t.Fatalf("point %d has time %d", i, p.Time)
		}
		if p.Loc < 0 || p.Loc >= plan.NumLocations() {
			t.Fatalf("point %d has location %d", i, p.Loc)
		}
		// The claimed location must contain the position.
		loc := plan.Location(p.Loc)
		if loc.Floor != p.Pos.Floor {
			t.Fatalf("point %d floor mismatch", i)
		}
		if !loc.Bounds.Contains(p.Pos.P) {
			t.Fatalf("point %d at %v outside its location %q %v", i, p.Pos.P, loc.Name, loc.Bounds)
		}
	}
}

func TestTrajectorySpeedBound(t *testing.T) {
	plan := testBuilding(t)
	rng := stats.NewRNG(7)
	cfg := NewConfig(900)
	traj, err := GenerateTrajectory(plan, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(traj.Points); i++ {
		a, b := traj.Points[i-1], traj.Points[i]
		if a.Pos.Floor != b.Pos.Floor {
			continue // stair transition teleports between landings
		}
		d := a.Pos.P.Dist(b.Pos.P)
		if d > cfg.MaxSpeed+1e-6 {
			t.Fatalf("step %d moved %.3f m in 1 s (max speed %g)", i, d, cfg.MaxSpeed)
		}
	}
}

func TestTrajectoryRespectsInferredConstraints(t *testing.T) {
	plan := testBuilding(t)
	du := constraints.InferDU(plan)
	lt := constraints.InferLT(plan, 5, floorplan.Corridor)
	tt, err := constraints.InferTT(plan, 2, 0) // generator's max speed
	if err != nil {
		t.Fatal(err)
	}
	ic := constraints.NewSet()
	ic.Merge(du)
	ic.Merge(lt)
	ic.Merge(tt)

	rng := stats.NewRNG(20140324)
	for trial := 0; trial < 25; trial++ {
		traj, err := GenerateTrajectory(plan, NewConfig(1200), rng)
		if err != nil {
			t.Fatal(err)
		}
		locs := traj.Locations()
		if !ic.ValidTrajectory(locs, constraints.LenientEnd) {
			t.Fatalf("trial %d: ground truth violates inferred constraints", trial)
		}
	}
}

func TestTrajectoryVisitsMultipleLocations(t *testing.T) {
	plan := testBuilding(t)
	rng := stats.NewRNG(3)
	traj, err := GenerateTrajectory(plan, NewConfig(1800), rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, l := range traj.Locations() {
		seen[l] = true
	}
	if len(seen) < 3 {
		t.Errorf("30-minute trajectory visited only %d locations", len(seen))
	}
}

func TestTrajectoryDeterministicPerSeed(t *testing.T) {
	plan := testBuilding(t)
	a, err := GenerateTrajectory(plan, NewConfig(300), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrajectory(plan, NewConfig(300), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("same seed diverged at point %d", i)
		}
	}
}

func TestDeadEndLocation(t *testing.T) {
	b := floorplan.NewBuilder()
	b.AddLocation("only", floorplan.Room, 0, geom.RectWH(0, 0, 5, 5))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	traj, err := GenerateTrajectory(plan, NewConfig(120), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if traj.Duration() != 120 {
		t.Fatalf("duration = %d", traj.Duration())
	}
	for _, p := range traj.Points {
		if p.Loc != 0 {
			t.Fatalf("left a doorless room")
		}
	}
}

func TestGenerateReadings(t *testing.T) {
	plan := testBuilding(t)
	cells, err := rfid.NewCellSpace(plan, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var readers []rfid.Reader
	id := 0
	for _, loc := range plan.Locations() {
		readers = append(readers, rfid.Reader{
			ID: id, Name: loc.Name, Floor: loc.Floor, Pos: loc.Bounds.Center(),
		})
		id++
	}
	truth := rfid.NewTruthMatrix(cells, readers, rfid.DefaultThreeState())

	rng := stats.NewRNG(11)
	traj, err := GenerateTrajectory(plan, NewConfig(600), rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := GenerateReadings(traj, truth, rng)
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	if seq.Duration() != traj.Duration() {
		t.Fatalf("reading/trajectory duration mismatch")
	}
	// Readings must be physically possible: a reader that fires must have a
	// non-zero rate at the object's cell.
	detections := 0
	for i, r := range seq {
		cell := cells.CellOf(traj.Points[i].Pos.Floor, traj.Points[i].Pos.P)
		if cell < 0 {
			t.Fatalf("sample %d outside cell space", i)
		}
		for _, rid := range r.Readers.IDs() {
			detections++
			if truth.Rate(rid, cell) <= 0 {
				t.Fatalf("reader %d fired at cell with zero rate", rid)
			}
		}
	}
	if detections == 0 {
		t.Errorf("no detections in a 10-minute trajectory")
	}
}

func TestReadingsIncludeMissesAndAmbiguity(t *testing.T) {
	plan := testBuilding(t)
	cells, err := rfid.NewCellSpace(plan, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse, weak readers: misses must occur.
	readers := []rfid.Reader{{ID: 0, Floor: 0, Pos: geom.Pt(2.5, 5.5)}}
	weak := rfid.ThreeState{MajorRadius: 1.5, MinorRadius: 3, MajorRate: 0.5, WallFactor: 0.1}
	truth := rfid.NewTruthMatrix(cells, readers, weak)
	rng := stats.NewRNG(13)
	traj, err := GenerateTrajectory(plan, NewConfig(600), rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := GenerateReadings(traj, truth, rng)
	empty := 0
	for _, r := range seq {
		if r.Readers.IsEmpty() {
			empty++
		}
	}
	if empty == 0 {
		t.Errorf("expected missed reads with a single weak reader")
	}
}
