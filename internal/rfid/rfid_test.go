package rfid

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/stats"
)

func testPlan(t *testing.T) *floorplan.Plan {
	t.Helper()
	b := floorplan.NewBuilder()
	a := b.AddLocation("A", floorplan.Room, 0, geom.RectWH(0, 0, 4, 4))
	c := b.AddLocation("B", floorplan.Room, 0, geom.RectWH(4, 0, 4, 4))
	b.AddDoor(a, c, geom.Pt(4, 2), 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSetCanonicalization(t *testing.T) {
	s := NewSet(3, 1, 2, 3, 1)
	want := []int{1, 2, 3}
	ids := s.IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v", ids)
		}
	}
	if s.Key() != "1,2,3" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.String() != "{1,2,3}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSetOps(t *testing.T) {
	empty := NewSet()
	if !empty.IsEmpty() || empty.Len() != 0 || empty.Key() != "" {
		t.Errorf("empty set misbehaves: %v", empty)
	}
	s := NewSet(5, 7)
	if !s.Contains(5) || !s.Contains(7) || s.Contains(6) {
		t.Errorf("Contains wrong")
	}
	if !s.Equal(NewSet(7, 5)) {
		t.Errorf("Equal should ignore order")
	}
	if s.Equal(NewSet(5)) || s.Equal(NewSet(5, 6)) {
		t.Errorf("Equal false positives")
	}
	var zero Set
	if !zero.Equal(empty) {
		t.Errorf("zero value should equal empty set")
	}
}

func TestSequenceValidate(t *testing.T) {
	if err := (Sequence{}).Validate(); err == nil {
		t.Errorf("empty sequence accepted")
	}
	ok := Sequence{{Time: 0}, {Time: 1}, {Time: 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if ok.Duration() != 3 {
		t.Errorf("Duration = %d", ok.Duration())
	}
	bad := Sequence{{Time: 0}, {Time: 2}}
	if err := bad.Validate(); err == nil {
		t.Errorf("gap accepted")
	}
}

func TestCellSpace(t *testing.T) {
	p := testPlan(t)
	cs, err := NewCellSpace(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumCells() != cs.CellsPerFloor() {
		t.Errorf("one floor: NumCells %d != CellsPerFloor %d", cs.NumCells(), cs.CellsPerFloor())
	}
	id := cs.CellOf(0, geom.Pt(1, 1))
	if id < 0 {
		t.Fatalf("CellOf failed")
	}
	floor, center := cs.CellCenter(id)
	if floor != 0 {
		t.Errorf("floor = %d", floor)
	}
	if center.Dist(geom.Pt(1, 1)) > 0.5 {
		t.Errorf("center %v far from query point", center)
	}
	if cs.LocationOfCell(id) != 0 {
		t.Errorf("cell at (1,1) not in location A")
	}
	if got := cs.CellOf(5, geom.Pt(1, 1)); got != -1 {
		t.Errorf("bad floor accepted: %d", got)
	}
	if got := cs.CellOf(0, geom.Pt(100, 100)); got != -1 {
		t.Errorf("outside point accepted: %d", got)
	}
}

func TestCellsOfLocationPartition(t *testing.T) {
	p := testPlan(t)
	cs, err := NewCellSpace(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell of location A must map back to A.
	for _, c := range cs.CellsOfLocation(0) {
		if cs.LocationOfCell(c) != 0 {
			t.Fatalf("cell %d not consistent", c)
		}
	}
	// Room A is 4x4 = 64 cells of 0.5m.
	if n := len(cs.CellsOfLocation(0)); n != 64 {
		t.Errorf("room A has %d cells, want 64", n)
	}
}

func TestThreeStateRate(t *testing.T) {
	p := testPlan(t)
	m := ThreeState{MajorRadius: 2, MinorRadius: 4, MajorRate: 0.9, WallFactor: 0.5}
	r := Reader{ID: 0, Floor: 0, Pos: geom.Pt(1, 1)}

	if got := m.Rate(p, r, 0, geom.Pt(1, 1)); got != 0.9 {
		t.Errorf("at antenna: %v", got)
	}
	if got := m.Rate(p, r, 0, geom.Pt(2.5, 1)); got != 0.9 {
		t.Errorf("inside major radius: %v", got)
	}
	mid := m.Rate(p, r, 0, geom.Pt(1, 3+1e-9)) // not through walls (same room): d=2..4
	if mid <= 0 || mid >= 0.9 {
		t.Errorf("decay zone rate = %v", mid)
	}
	if got := m.Rate(p, r, 0, geom.Pt(1, 3.9)); got >= mid {
		t.Errorf("rate should decrease with distance")
	}
	if got := m.Rate(p, r, 0, geom.Pt(1, 3.9)); got <= 0 {
		t.Errorf("decay zone rate should be positive: %v", got)
	}
	if got := m.Rate(p, r, 1, geom.Pt(1, 1)); got != 0 {
		t.Errorf("other floor detected: %v", got)
	}
	if got := m.Rate(p, r, 0, geom.Pt(1, 100)); got != 0 {
		t.Errorf("far point detected: %v", got)
	}
}

func TestThreeStateWallAttenuation(t *testing.T) {
	p := testPlan(t)
	m := ThreeState{MajorRadius: 3, MinorRadius: 6, MajorRate: 0.8, WallFactor: 0.25}
	r := Reader{ID: 0, Floor: 0, Pos: geom.Pt(3.5, 0.5)}
	// (4.5, 0.5) is across the solid part of the shared wall: one wall.
	through := m.Rate(p, r, 0, geom.Pt(4.5, 0.5))
	if math.Abs(through-0.8*0.25) > 1e-9 {
		t.Errorf("one-wall rate = %v, want %v", through, 0.8*0.25)
	}
	// Through the door at (4,2): no wall.
	rDoor := Reader{ID: 1, Floor: 0, Pos: geom.Pt(3.5, 2)}
	free := m.Rate(p, rDoor, 0, geom.Pt(4.5, 2))
	if free != 0.8 {
		t.Errorf("through-door rate = %v, want 0.8", free)
	}
}

func TestTruthMatrixAndDetect(t *testing.T) {
	p := testPlan(t)
	cs, err := NewCellSpace(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	readers := []Reader{
		{ID: 0, Name: "rA", Floor: 0, Pos: geom.Pt(2, 2)},
		{ID: 1, Name: "rB", Floor: 0, Pos: geom.Pt(6, 2)},
	}
	truth := NewTruthMatrix(cs, readers, DefaultThreeState())
	for ri := range readers {
		if first, row := truth.Row(ri); first < 0 || first+len(row) > cs.NumCells() || len(row) == 0 {
			t.Fatalf("reader %d: span [%d, %d) outside the %d cells", ri, first, first+len(row), cs.NumCells())
		}
	}
	cellNearA := cs.CellOf(0, geom.Pt(2, 2))
	if truth.Rate(0, cellNearA) < 0.9 {
		t.Errorf("reader A should see its own cell strongly: %v", truth.Rate(0, cellNearA))
	}

	rng := stats.NewRNG(99)
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		s := truth.DetectAt(cellNearA, rng)
		if s.Contains(0) {
			hits++
		}
		if s.Contains(1) && truth.Rate(1, cellNearA) == 0 {
			t.Fatalf("impossible detection")
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-truth.Rate(0, cellNearA)) > 0.05 {
		t.Errorf("detect frequency %v vs rate %v", frac, truth.Rate(0, cellNearA))
	}

	if _, ok := truth.ReaderByID(1); !ok {
		t.Errorf("ReaderByID(1) missing")
	}
	if _, ok := truth.ReaderByID(42); ok {
		t.Errorf("ReaderByID(42) found")
	}
}

func TestCalibrate(t *testing.T) {
	p := testPlan(t)
	cs, err := NewCellSpace(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	readers := []Reader{{ID: 0, Floor: 0, Pos: geom.Pt(2, 2)}}
	truth := NewTruthMatrix(cs, readers, DefaultThreeState())
	rng := stats.NewRNG(7)
	learned := Calibrate(truth, 30, rng)

	// Learned rates are frequencies with denominator 30.
	var maxErr float64
	for c := 0; c < cs.NumCells(); c++ {
		lr, tr := learned.Rate(0, c), truth.Rate(0, c)
		if tr == 0 && lr != 0 {
			t.Fatalf("learned nonzero where truth is zero (cell %d)", c)
		}
		if e := math.Abs(lr - tr); e > maxErr {
			maxErr = e
		}
		if f := lr * 30; math.Abs(f-math.Round(f)) > 1e-9 {
			t.Fatalf("learned rate %v is not a multiple of 1/30", lr)
		}
	}
	if maxErr > 0.5 {
		t.Errorf("calibration wildly off: max err %v", maxErr)
	}

	// Degenerate sample count falls back to 1.
	l2 := Calibrate(truth, 0, rng)
	for c := 0; c < cs.NumCells(); c++ {
		if v := l2.Rate(0, c); v != 0 && v != 1 {
			t.Fatalf("samples=0 should yield 0/1 frequencies, got %v", v)
		}
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	cases := []Set{NewSet(), NewSet(3, 1, 2)}
	for _, s := range cases {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Set
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(s) {
			t.Errorf("round trip %v -> %s -> %v", s, data, back)
		}
	}
	// Readings embed sets.
	r := Reading{Time: 3, Readers: NewSet(5)}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Reading
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Time != 3 || !back.Readers.Equal(r.Readers) {
		t.Errorf("reading round trip failed: %+v", back)
	}
	// Malformed input errors.
	var s Set
	if err := json.Unmarshal([]byte(`"oops"`), &s); err == nil {
		t.Errorf("malformed set accepted")
	}
}
