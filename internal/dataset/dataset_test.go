package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/rfid"
)

func buildSYN1(t *testing.T) *Dataset {
	t.Helper()
	d, err := Build("SYN1", SYN1())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildSYN1Shape(t *testing.T) {
	d := buildSYN1(t)
	if d.Plan.NumFloors() != 4 {
		t.Errorf("floors = %d", d.Plan.NumFloors())
	}
	if got := d.Plan.NumLocations(); got != 4*6 {
		t.Errorf("locations = %d, want 24", got)
	}
	if got := len(d.Readers); got != 4*13 {
		t.Errorf("readers = %d, want 52", got)
	}
	if d.Cells.NumCells() != d.Cells.CellsPerFloor()*4 {
		t.Errorf("cell space inconsistent")
	}
	// Every location must contain at least one grid cell.
	for _, l := range d.Plan.Locations() {
		if len(d.Cells.CellsOfLocation(l.ID)) == 0 {
			t.Errorf("location %q has no cells", l.Name)
		}
	}
}

func TestBuildSYN2Shape(t *testing.T) {
	d, err := Build("SYN2", SYN2())
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.NumFloors() != 8 {
		t.Errorf("floors = %d", d.Plan.NumFloors())
	}
	if got := d.Plan.NumLocations(); got != 8*6 {
		t.Errorf("locations = %d, want 48", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("bad", Config{}); err == nil {
		t.Errorf("zero config accepted")
	}
	cfg := SYN1()
	cfg.Floors = 0
	if _, err := Build("bad", cfg); err == nil {
		t.Errorf("zero floors accepted")
	}
	cfg = SYN1()
	cfg.MaxSpeed = -1
	if _, err := Build("bad", cfg); err == nil {
		t.Errorf("negative speed accepted")
	}
	cfg = SYN1()
	cfg.CellSize = 0
	if _, err := Build("bad", cfg); err == nil {
		t.Errorf("zero cell size accepted")
	}
}

func TestConstraintSelections(t *testing.T) {
	d := buildSYN1(t)
	duCount := func(s *constraints.Set) int { du, _, _ := s.Counts(); return du }
	ltCount := func(s *constraints.Set) int { _, lt, _ := s.Counts(); return lt }
	ttCount := func(s *constraints.Set) int { _, _, tt := s.Counts(); return tt }

	du := d.Constraints(SelDU)
	if duCount(du) == 0 || ltCount(du) != 0 || ttCount(du) != 0 {
		t.Errorf("SelDU counts = %v", du)
	}
	dult := d.Constraints(SelDULT)
	if ltCount(dult) == 0 || ttCount(dult) != 0 {
		t.Errorf("SelDULT counts = %v", dult)
	}
	all := d.Constraints(SelDULTTT)
	if ttCount(all) == 0 {
		t.Errorf("SelDULTTT has no TT constraints")
	}
	// LT excludes corridors.
	cor, ok := d.Plan.LocationByName("F0.corridor")
	if !ok {
		t.Fatal("corridor missing")
	}
	if _, has := all.Latency(cor.ID); has {
		t.Errorf("corridor has a latency constraint")
	}
	// Directly connected rooms L1-L2 must not be DU.
	l1, _ := d.Plan.LocationByName("F0.L1")
	l2, _ := d.Plan.LocationByName("F0.L2")
	l3, _ := d.Plan.LocationByName("F0.L3")
	if all.Unreachable(l1.ID, l2.ID) {
		t.Errorf("adjacent rooms marked unreachable")
	}
	if !all.Unreachable(l1.ID, l3.ID) {
		t.Errorf("non-adjacent rooms not marked unreachable")
	}
	// Cross-floor rooms get TT constraints.
	f1l1, _ := d.Plan.LocationByName("F1.L1")
	if _, ok := all.TT(l1.ID, f1l1.ID); !ok {
		t.Errorf("no TT constraint between floors")
	}
	// Selections are independent clones.
	du.AddDU(l1.ID, l2.ID)
	if d.Constraints(SelDU).Unreachable(l1.ID, l2.ID) {
		t.Errorf("Constraints returned a shared set")
	}
}

func TestSelectionString(t *testing.T) {
	if SelDU.String() != "DU" || SelDULT.String() != "DU+LT" || SelDULTTT.String() != "DU+LT+TT" {
		t.Errorf("selection strings wrong")
	}
	if !strings.Contains(Selection(9).String(), "9") {
		t.Errorf("unknown selection string wrong")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	d := buildSYN1(t)
	a, err := d.Generate(120, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Generate(120, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("instance counts = %d, %d", len(a), len(b))
	}
	for i := range a {
		la, lb := a[i].Truth.Locations(), b[i].Truth.Locations()
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("instance %d diverged at %d", i, j)
			}
		}
		for j := range a[i].Readings {
			if !a[i].Readings[j].Readers.Equal(b[i].Readings[j].Readers) {
				t.Fatalf("readings %d diverged at %d", i, j)
			}
		}
	}
	c, err := d.Generate(120, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j, l := range c[0].Truth.Locations() {
		if l != a[0].Truth.Locations()[j] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different streams produced identical trajectories")
	}
}

func TestGroundTruthSatisfiesAllSelections(t *testing.T) {
	d := buildSYN1(t)
	insts, err := d.Generate(600, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range Selections {
		ic := d.Constraints(sel)
		for i, inst := range insts {
			if !ic.ValidTrajectory(inst.Truth.Locations(), constraints.LenientEnd) {
				t.Errorf("instance %d violates %v", i, sel)
			}
		}
	}
}

// TestEndToEndCleaning runs the full pipeline on a short trajectory: prior ->
// l-sequence -> ct-graph -> queries, checking structural invariants and that
// conditioning does not hurt stay accuracy on average.
func TestEndToEndCleaning(t *testing.T) {
	d := buildSYN1(t)
	insts, err := d.Generate(180, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		ls, err := d.Prior.LSequence(inst.Readings)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Build(ls, d.Constraints(SelDULT), &core.Options{EndLatency: constraints.LenientEnd})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckInvariants(1e-6); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		e := query.NewEngine(g, d.Plan.NumLocations())
		truthLocs := inst.Truth.Locations()
		var condAcc, priorAcc float64
		for tau := 0; tau < 180; tau += 10 {
			dist, err := e.Stay(tau)
			if err != nil {
				t.Fatal(err)
			}
			condAcc += query.StayAccuracy(dist, truthLocs[tau])
			// Prior accuracy: the unconditioned per-step distribution.
			pd := d.Prior.Dist(inst.Readings[tau].Readers)
			priorAcc += query.StayAccuracy(pd, truthLocs[tau])
		}
		if condAcc < 0 || math.IsNaN(condAcc) {
			t.Fatalf("broken accuracy %v", condAcc)
		}
		t.Logf("conditioned stay accuracy %.3f vs prior %.3f (sum over 18 queries)", condAcc, priorAcc)
	}
}

// TestReaderOutageRobustness injects a hard reader failure: every reading
// from the failed readers is dropped (as if the antennas went dark), and the
// learned matrix is rebuilt without them. Cleaning must still succeed and
// accuracy must degrade gracefully rather than collapse.
func TestReaderOutageRobustness(t *testing.T) {
	cfg := SYN1()
	cfg.Floors = 1
	d, err := Build("TINY", cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := d.Generate(180, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the two in-room readers of L1 (door + deep) — the object loses
	// direct coverage there.
	failed := map[int]bool{}
	for _, r := range d.Readers {
		if r.Name == "F0.r1" || r.Name == "F0.r1b" {
			failed[r.ID] = true
		}
	}
	if len(failed) != 2 {
		t.Fatalf("expected to fail 2 readers, found %d", len(failed))
	}
	for _, inst := range insts {
		// Drop failed readers from the observed data.
		broken := make(rfid.Sequence, len(inst.Readings))
		for i, rd := range inst.Readings {
			var keep []int
			for _, id := range rd.Readers.IDs() {
				if !failed[id] {
					keep = append(keep, id)
				}
			}
			broken[i] = rfid.Reading{Time: rd.Time, Readers: rfid.NewSet(keep...)}
		}
		ls, err := d.Prior.LSequence(broken)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Build(ls, d.Constraints(SelDULT), &core.Options{EndLatency: constraints.LenientEnd})
		if err != nil {
			t.Fatalf("cleaning failed under reader outage: %v", err)
		}
		eng := query.NewEngine(g, d.Plan.NumLocations())
		truth := inst.Truth.Locations()
		acc := 0.0
		n := 0
		for tau := 0; tau < 180; tau += 10 {
			dist, err := eng.Stay(tau)
			if err != nil {
				t.Fatal(err)
			}
			acc += query.StayAccuracy(dist, truth[tau])
			n++
		}
		if acc/float64(n) < 0.2 {
			t.Errorf("accuracy collapsed under outage: %.3f", acc/float64(n))
		}
	}
}

// TestAllReadersDark: an object outside all coverage (every reading empty)
// still cleans — the prior falls back to area-proportional candidates and
// the constraints do the rest.
func TestAllReadersDark(t *testing.T) {
	cfg := SYN1()
	cfg.Floors = 1
	d, err := Build("TINY", cfg)
	if err != nil {
		t.Fatal(err)
	}
	dark := make(rfid.Sequence, 60)
	for i := range dark {
		dark[i] = rfid.Reading{Time: i}
	}
	ls, err := d.Prior.LSequence(dark)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(ls, d.Constraints(SelDULT), &core.Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatalf("cleaning failed on all-dark readings: %v", err)
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		t.Fatal(err)
	}
}

// matrixDigest is the SHA-256 of a detection matrix's rates, row by row,
// each entry as its little-endian IEEE-754 bits.
func matrixDigest(m *rfid.Matrix) string {
	h := sha256.New()
	var b [8]byte
	for r := range m.Readers {
		for c := 0; c < m.Cells.NumCells(); c++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Rate(r, c)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMatrixDigestsPinned pins the ground-truth and calibrated detection
// matrices of SYN1 and SYN2 bit for bit, so any change to how F or F̂ is
// built (the cells a reader is evaluated at, the wall crossings counted, the
// order calibration draws in) shows as a changed digest.
func TestMatrixDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		truth, learned string
	}{
		{"SYN1", SYN1(),
			"6e3c30407ee1e8cde4d7a623276e8b6adab66502aa1def361eefa7322f5d21d3",
			"0b342d1ae6c243bf2a99673301015cfef3be42f0ba614223f9d65f192be8a98a"},
		{"SYN2", SYN2(),
			"d2e1cefe7def173055c679aca9373100db086b51756d214c2d2245c1ef13dabb",
			"9ee43d99a941e2a2acade439e4d21f3c7187705360b4ff44f040d84280385f65"},
	} {
		d, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixDigest(d.Truth); got != tc.truth {
			t.Errorf("%s truth matrix digest %s, want %s", tc.name, got, tc.truth)
		}
		if got := matrixDigest(d.Learned); got != tc.learned {
			t.Errorf("%s calibrated matrix digest %s, want %s", tc.name, got, tc.learned)
		}
	}
}
