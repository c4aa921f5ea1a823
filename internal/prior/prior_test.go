package prior

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/rfid"
)

// fixture builds a two-room plan with one reader per room and returns the
// truth matrix. Reader 0 covers room A, reader 1 covers room B; coverage
// overlaps slightly near the door.
func fixture(t *testing.T) *rfid.Matrix {
	t.Helper()
	b := floorplan.NewBuilder()
	a := b.AddLocation("A", floorplan.Room, 0, geom.RectWH(0, 0, 4, 4))
	c := b.AddLocation("B", floorplan.Room, 0, geom.RectWH(4, 0, 4, 4))
	b.AddDoor(a, c, geom.Pt(4, 2), 1.5)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := rfid.NewCellSpace(plan, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	readers := []rfid.Reader{
		{ID: 0, Name: "rA", Floor: 0, Pos: geom.Pt(2, 2)},
		{ID: 1, Name: "rB", Floor: 0, Pos: geom.Pt(6, 2)},
	}
	return rfid.NewTruthMatrix(cells, readers, rfid.DefaultThreeState())
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestDistNormalized(t *testing.T) {
	m := New(fixture(t), Options{})
	for _, set := range []rfid.Set{
		rfid.NewSet(0),
		rfid.NewSet(1),
		rfid.NewSet(0, 1),
		rfid.NewSet(),
	} {
		d := m.Dist(set)
		if len(d) != 2 {
			t.Fatalf("dist len = %d", len(d))
		}
		if math.Abs(sum(d)-1) > 1e-9 {
			t.Errorf("dist(%v) sums to %v", set, sum(d))
		}
		for loc, p := range d {
			if p < 0 || p > 1 {
				t.Errorf("dist(%v)[%d] = %v", set, loc, p)
			}
		}
	}
}

func TestDistPointsToRightRoom(t *testing.T) {
	m := New(fixture(t), Options{})
	dA := m.Dist(rfid.NewSet(0))
	if dA[0] <= dA[1] {
		t.Errorf("reader 0 fired but room A not favored: %v", dA)
	}
	dB := m.Dist(rfid.NewSet(1))
	if dB[1] <= dB[0] {
		t.Errorf("reader 1 fired but room B not favored: %v", dB)
	}
}

func TestDistBothReadersMeansDoorZone(t *testing.T) {
	m := New(fixture(t), Options{})
	d := m.Dist(rfid.NewSet(0, 1))
	// Both rooms contain cells visible to both readers (near the door), so
	// both get mass.
	if d[0] == 0 || d[1] == 0 {
		t.Errorf("double detection should leave both rooms possible: %v", d)
	}
}

func TestDistEmptySetPaperFormula(t *testing.T) {
	// With the paper's formula, R = ∅ weights every cell 1, so the
	// distribution is proportional to location cell counts (equal rooms ->
	// 1/2 each).
	m := New(fixture(t), Options{})
	d := m.Dist(rfid.NewSet())
	if math.Abs(d[0]-0.5) > 1e-9 || math.Abs(d[1]-0.5) > 1e-9 {
		t.Errorf("empty-set dist = %v, want uniform by area", d)
	}
}

func TestDistImpossibleSetFallsBackUniform(t *testing.T) {
	// Construct a matrix where no cell is seen by both readers by using a
	// wall-heavy model: put the readers far apart with a tiny radius.
	b := floorplan.NewBuilder()
	a := b.AddLocation("A", floorplan.Room, 0, geom.RectWH(0, 0, 4, 4))
	c := b.AddLocation("B", floorplan.Room, 0, geom.RectWH(4, 0, 4, 4))
	b.AddDoor(a, c, geom.Pt(4, 2), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := rfid.NewCellSpace(plan, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	readers := []rfid.Reader{
		{ID: 0, Floor: 0, Pos: geom.Pt(0.5, 0.5)},
		{ID: 1, Floor: 0, Pos: geom.Pt(7.5, 3.5)},
	}
	model := rfid.ThreeState{MajorRadius: 1, MinorRadius: 1.5, MajorRate: 0.9, WallFactor: 0}
	truth := rfid.NewTruthMatrix(cells, readers, model)
	m := New(truth, Options{})
	d := m.Dist(rfid.NewSet(0, 1))
	if math.Abs(d[0]-0.5) > 1e-9 || math.Abs(d[1]-0.5) > 1e-9 {
		t.Errorf("impossible set should fall back to uniform: %v", d)
	}
}

func TestFullLikelihoodSharpens(t *testing.T) {
	f := fixture(t)
	paper := New(f, Options{Formula: PaperFormula})
	full := New(f, Options{Formula: FullLikelihood})
	// Reader 0 fired, reader 1 silent: full likelihood penalizes door-zone
	// cells (visible to reader 1), so room A probability must not drop.
	dp := paper.Dist(rfid.NewSet(0))
	df := full.Dist(rfid.NewSet(0))
	if df[0] < dp[0]-1e-9 {
		t.Errorf("full likelihood should sharpen toward room A: paper %v, full %v", dp, df)
	}
	if math.Abs(sum(df)-1) > 1e-9 {
		t.Errorf("full-likelihood dist not normalized: %v", df)
	}
}

func TestMinProbPruning(t *testing.T) {
	f := fixture(t)
	m := New(f, Options{MinProb: 0.45})
	d := m.Dist(rfid.NewSet(0))
	// Whatever survives must be renormalized.
	if math.Abs(sum(d)-1) > 1e-9 {
		t.Errorf("pruned dist sums to %v", sum(d))
	}
	for _, p := range d {
		if p != 0 && p < 0.45 {
			t.Errorf("entry below threshold survived: %v", d)
		}
	}
}

func TestPruneKeepsArgmaxWhenAllBelow(t *testing.T) {
	d := prune([]float64{0.3, 0.4, 0.3}, 0.9)
	if d[1] != 1 || d[0] != 0 || d[2] != 0 {
		t.Errorf("prune fallback = %v", d)
	}
}

func TestDistCaching(t *testing.T) {
	m := New(fixture(t), Options{})
	a := m.Dist(rfid.NewSet(0))
	b := m.Dist(rfid.NewSet(0))
	if &a[0] != &b[0] {
		t.Errorf("cache miss on identical reader set")
	}
	if m.CacheSize() != 1 {
		t.Errorf("CacheSize = %d", m.CacheSize())
	}
	m.Dist(rfid.NewSet(1))
	if m.CacheSize() != 2 {
		t.Errorf("CacheSize = %d", m.CacheSize())
	}
}

// TestDistCacheIgnoresUnknownReaders: reader sets, alone or as a group's
// members, that differ only in IDs the matrix does not know share one cache
// entry, and the answer for every known set stays bit-identical to a fresh
// model's, under both formulas.
func TestDistCacheIgnoresUnknownReaders(t *testing.T) {
	f := fixture(t)
	for _, row := range []struct {
		name   string
		base   []rfid.Set   // the known readers of each member
		others [][]rfid.Set // further known groups to compare afterwards
	}{
		{"single", []rfid.Set{rfid.NewSet(0)},
			[][]rfid.Set{{rfid.NewSet()}, {rfid.NewSet(1)}, {rfid.NewSet(0, 1)}}},
		{"group", []rfid.Set{rfid.NewSet(0), rfid.NewSet(0, 1)},
			[][]rfid.Set{{rfid.NewSet(), rfid.NewSet(1)}, {rfid.NewSet(0, 1), rfid.NewSet(0)}, {rfid.NewSet(0), rfid.NewSet(0), rfid.NewSet(1)}}},
	} {
		for _, formula := range []Formula{PaperFormula, FullLikelihood} {
			fresh, m := New(f, Options{Formula: formula}), New(f, Options{Formula: formula})
			same := func(what string, got, want []float64) {
				t.Helper()
				for loc := range want {
					if math.Float64bits(got[loc]) != math.Float64bits(want[loc]) {
						t.Fatalf("%s/%v: %s: p(%d) = %v, want %v", row.name, formula, what, loc, got[loc], want[loc])
					}
				}
			}
			want := fresh.Dist(row.base...)
			group := make([]rfid.Set, len(row.base))
			for i := 0; i < 10000; i++ {
				for j, set := range row.base {
					group[j] = rfid.NewSet(append([]int{1000 + i, -1 - (i+j)%7}, set.IDs()...)...)
				}
				same(fmt.Sprintf("set %d", i), m.Dist(group...), want)
			}
			if m.CacheSize() != 1 {
				t.Fatalf("%s/%v: CacheSize = %d after 10000 sets differing in unknown readers, want 1", row.name, formula, m.CacheSize())
			}
			for _, sets := range row.others {
				same(fmt.Sprintf("dist%v", sets), m.Dist(sets...), fresh.Dist(sets...))
			}
		}
	}
}

func TestLSequence(t *testing.T) {
	m := New(fixture(t), Options{})
	seq := rfid.Sequence{
		{Time: 0, Readers: rfid.NewSet(0)},
		{Time: 1, Readers: rfid.NewSet(0, 1)},
		{Time: 2, Readers: rfid.NewSet()},
	}
	ls, err := m.LSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Validate(); err != nil {
		t.Errorf("produced l-sequence invalid: %v", err)
	}
	if ls.Duration() != 3 {
		t.Errorf("duration = %d", ls.Duration())
	}
	// Invalid sequence must be rejected.
	if _, err := m.LSequence(rfid.Sequence{{Time: 5}}); err == nil {
		t.Errorf("invalid sequence accepted")
	}
	if _, err := m.LSequence(nil); err == nil {
		t.Errorf("empty sequence accepted")
	}
}

func TestFormulaString(t *testing.T) {
	if PaperFormula.String() != "paper" || FullLikelihood.String() != "full-likelihood" {
		t.Errorf("formula strings wrong")
	}
}

func TestNumLocations(t *testing.T) {
	m := New(fixture(t), Options{})
	if m.NumLocations() != 2 {
		t.Errorf("NumLocations = %d", m.NumLocations())
	}
}

func TestDistConcurrent(t *testing.T) {
	m := New(fixture(t), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := m.Dist(rfid.NewSet(i % 2))
				if math.Abs(sum(d)-1) > 1e-9 {
					t.Errorf("goroutine %d: dist sums to %v", g, sum(d))
					return
				}
				if d := m.Dist(rfid.NewSet(0), rfid.NewSet(1)); math.Abs(sum(d)-1) > 1e-9 {
					t.Errorf("goroutine %d: group dist sums to %v", g, sum(d))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.CacheSize() == 0 {
		t.Errorf("cache empty after concurrent use")
	}
}

func entropy(dist []float64) float64 {
	h := 0.0
	for _, p := range dist {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

func TestGroupDistValidation(t *testing.T) {
	m := New(fixture(t), Options{})
	if d := m.Dist(); d != nil {
		t.Errorf("empty group gave %v", d)
	}
}

// TestGroupDistSingletonEqualsDist: a group of one member is the single
// set's distribution, down to its cache entry.
func TestGroupDistSingletonEqualsDist(t *testing.T) {
	m := New(fixture(t), Options{})
	set := rfid.NewSet(0)
	single := m.Dist(set)
	group := m.Dist([]rfid.Set{set}...)
	if &single[0] != &group[0] || m.CacheSize() != 1 {
		t.Fatalf("singleton group has its own cache entry (CacheSize %d)", m.CacheSize())
	}
}

func TestGroupDistSharper(t *testing.T) {
	m := New(fixture(t), Options{})
	// Two members both detected by reader 0 (room A's reader): the joint
	// evidence squares the cell weights, concentrating mass on room A
	// harder than the single observation does.
	single := m.Dist(rfid.NewSet(0))
	group := m.Dist(rfid.NewSet(0), rfid.NewSet(0))
	sum := 0.0
	for _, p := range group {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("group dist sums to %v", sum)
	}
	if group[0] < single[0]-1e-9 {
		t.Errorf("duplicated evidence weakened room A: group %v vs single %v", group[0], single[0])
	}
	if entropy(group) > entropy(single)+1e-9 {
		t.Errorf("group entropy %v not sharper than single %v", entropy(group), entropy(single))
	}
}

func TestGroupDistIncompatibleFallsBackUniform(t *testing.T) {
	// Two members detected by readers with disjoint coverage: no cell
	// explains both, so the joint distribution falls back to uniform.
	m2 := New(disjointFixture(t), Options{})
	dist := m2.Dist(rfid.NewSet(0), rfid.NewSet(1))
	if math.Abs(dist[0]-0.5) > 1e-9 || math.Abs(dist[1]-0.5) > 1e-9 {
		t.Errorf("incompatible group should be uniform: %v", dist)
	}
}

// disjointFixture builds a plan whose two readers cover disjoint cells.
func disjointFixture(t *testing.T) *rfid.Matrix {
	t.Helper()
	f := fixture(t)
	// Zero out any cell covered by both readers.
	for c := range f.Rates[0] {
		if f.Rates[0][c] > 0 && f.Rates[1][c] > 0 {
			f.Rates[1][c] = 0
		}
	}
	return f
}

func TestGroupDistCaching(t *testing.T) {
	m := New(fixture(t), Options{})
	sets := []rfid.Set{rfid.NewSet(0), rfid.NewSet(1)}
	a := m.Dist(sets...)
	b := m.Dist(sets...)
	if &a[0] != &b[0] {
		t.Errorf("group cache miss")
	}
}

func TestGroupLSequence(t *testing.T) {
	m := New(fixture(t), Options{})
	seqA := rfid.Sequence{
		{Time: 0, Readers: rfid.NewSet(0)},
		{Time: 1, Readers: rfid.NewSet()},
	}
	seqB := rfid.Sequence{
		{Time: 0, Readers: rfid.NewSet(0)},
		{Time: 1, Readers: rfid.NewSet(1)},
	}
	ls, err := m.LSequence(seqA, seqB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if ls.Duration() != 2 {
		t.Errorf("duration = %d", ls.Duration())
	}
	// Errors.
	if _, err := m.LSequence(); err == nil {
		t.Errorf("empty group accepted")
	}
	if _, err := m.LSequence(seqA, seqB[:1]); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if _, err := m.LSequence(seqA, rfid.Sequence{{Time: 5}}); err == nil {
		t.Errorf("invalid member accepted")
	}
}
