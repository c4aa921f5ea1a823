// Package rfid models the RFID substrate of the paper: readers placed over a
// floor plan, their detection behavior, the detection-rate matrix F[r,c]
// defined on a grid partitioning of the map (§6.2), and the readings
// (timestamp, set-of-readers) collected for a monitored object (§2).
//
// Detection follows a three-state antenna model in the spirit of the model
// the paper cites for building p*(l|R) physically: a tag within the major
// radius of a reader is detected with a high constant rate; between the
// major and minor radius the rate decays linearly to zero; beyond it the tag
// is never detected. Walls between tag and antenna attenuate the rate by a
// constant factor per wall.
package rfid

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Reader is an RFID reader antenna placed at a fixed position on a floor.
type Reader struct {
	ID    int        `json:"id"`
	Name  string     `json:"name"`
	Floor int        `json:"floor"`
	Pos   geom.Point `json:"pos"`
}

// Set is a set of reader IDs in canonical (sorted, deduplicated) order.
// The zero value is the empty set, which models "detected by no reader".
type Set struct {
	ids []int
}

// NewSet returns the canonical set of the given reader IDs.
func NewSet(ids ...int) Set {
	if len(ids) == 0 {
		return Set{}
	}
	cp := append([]int(nil), ids...)
	sort.Ints(cp)
	out := cp[:1]
	for _, id := range cp[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// IDs returns the reader IDs in ascending order. The returned slice must not
// be modified.
func (s Set) IDs() []int { return s.ids }

// Len returns the number of readers in the set.
func (s Set) Len() int { return len(s.ids) }

// IsEmpty reports whether the set is empty.
func (s Set) IsEmpty() bool { return len(s.ids) == 0 }

// Contains reports whether id is in the set.
func (s Set) Contains(id int) bool {
	i := sort.SearchInts(s.ids, id)
	return i < len(s.ids) && s.ids[i] == id
}

// Equal reports whether s and t contain the same readers.
func (s Set) Equal(t Set) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the set, usable as a map key.
func (s Set) Key() string {
	if len(s.ids) == 0 {
		return ""
	}
	var b strings.Builder
	for i, id := range s.ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (s Set) String() string { return "{" + s.Key() + "}" }

// Reading records that the monitored object was detected at time Time by all
// and only the readers in Readers (§2). An empty set means a missed read.
type Reading struct {
	Time    int `json:"time"`
	Readers Set `json:"readers"`
}

// Sequence is a reading sequence (r-sequence): exactly one reading per
// timestamp of the monitoring window [0, len-1].
type Sequence []Reading

// Validate checks that the sequence covers timestamps 0..len-1 contiguously.
func (q Sequence) Validate() error {
	if len(q) == 0 {
		return fmt.Errorf("rfid: empty reading sequence")
	}
	for i, r := range q {
		if r.Time != i {
			return fmt.Errorf("rfid: reading %d has timestamp %d, want %d", i, r.Time, i)
		}
	}
	return nil
}

// Duration returns the number of timestamps covered by the sequence.
func (q Sequence) Duration() int { return len(q) }

// CellSpace indexes the grid cells of every floor of a building with a
// single dense cell ID: id = floor*cellsPerFloor + cellWithinFloor. All
// floors share the same grid geometry (the building outline partitioned
// into square cells).
type CellSpace struct {
	Plan *floorplan.Plan
	Grid *geom.Grid

	cellsByLoc [][]int // location ID -> global cell IDs whose center is in it
	locByCell  []int   // global cell ID -> location ID or -1
}

// NewCellSpace partitions every floor of plan into square cells of the given
// size and precomputes the cell/location correspondence.
func NewCellSpace(plan *floorplan.Plan, cellSize float64) (*CellSpace, error) {
	grid, err := geom.NewGrid(plan.Outline(), cellSize)
	if err != nil {
		return nil, err
	}
	cs := &CellSpace{Plan: plan, Grid: grid}
	per := grid.NumCells()
	total := per * plan.NumFloors()
	cs.locByCell = make([]int, total)
	cs.cellsByLoc = make([][]int, plan.NumLocations())
	for id := 0; id < total; id++ {
		floor := id / per
		center := grid.CellCenter(id % per)
		loc := plan.LocationAt(floor, center)
		cs.locByCell[id] = loc
		if loc >= 0 {
			cs.cellsByLoc[loc] = append(cs.cellsByLoc[loc], id)
		}
	}
	return cs, nil
}

// NumCells returns the total number of cells over all floors.
func (cs *CellSpace) NumCells() int { return cs.Grid.NumCells() * cs.Plan.NumFloors() }

// CellsPerFloor returns the number of cells on a single floor.
func (cs *CellSpace) CellsPerFloor() int { return cs.Grid.NumCells() }

// CellOf returns the global cell ID containing the point on the given floor,
// or -1 when the point lies outside the building outline.
func (cs *CellSpace) CellOf(floor int, p geom.Point) int {
	idx := cs.Grid.CellIndex(p)
	if idx < 0 || floor < 0 || floor >= cs.Plan.NumFloors() {
		return -1
	}
	return floor*cs.Grid.NumCells() + idx
}

// CellCenter returns the floor and center point of a global cell ID.
func (cs *CellSpace) CellCenter(id int) (floor int, center geom.Point) {
	per := cs.Grid.NumCells()
	return id / per, cs.Grid.CellCenter(id % per)
}

// LocationOfCell returns the location whose area contains the cell's center,
// or -1 for cells inside walls or outside every location.
func (cs *CellSpace) LocationOfCell(id int) int { return cs.locByCell[id] }

// CellsOfLocation returns the global cell IDs whose centers lie inside the
// location. The returned slice must not be modified.
func (cs *CellSpace) CellsOfLocation(loc int) []int { return cs.cellsByLoc[loc] }

// ThreeState is the three-state detection model: constant MajorRate within
// MajorRadius, linear decay to zero between MajorRadius and MinorRadius,
// zero beyond. Each wall crossed between antenna and tag multiplies the rate
// by WallFactor. A reader never detects tags on other floors.
type ThreeState struct {
	MajorRadius float64 // meters
	MinorRadius float64 // meters, > MajorRadius
	MajorRate   float64 // detection probability within MajorRadius
	WallFactor  float64 // per-wall attenuation in [0, 1]
}

// DefaultThreeState returns the detection model used by the synthetic
// datasets: reliable within 2 m, fading out at 4 m, and walls cutting the
// rate by 85% each.
func DefaultThreeState() ThreeState {
	return ThreeState{MajorRadius: 2, MinorRadius: 4, MajorRate: 0.95, WallFactor: 0.15}
}

// Rate returns the probability in [0, 1] that reader r detects a tag at the
// given floor and point during one time unit. It is the per-point definition
// NewTruthMatrix evaluates only where it can be non-zero.
func (m ThreeState) Rate(plan *floorplan.Plan, r Reader, floor int, p geom.Point) float64 {
	if floor != r.Floor {
		return 0
	}
	rate, ok := m.reach(r.Pos.Dist(p))
	if ok && m.WallFactor < 1 {
		rate = m.attenuate(rate, plan.WallsBetween(floor, r.Pos, p))
	}
	return rate
}

// reach returns the rate at distance d from the antenna before walls, and
// false (with rate 0) beyond the model's support, where walls do not matter.
func (m ThreeState) reach(d float64) (float64, bool) {
	switch {
	case d <= m.MajorRadius:
		return m.MajorRate, true
	case d <= m.MinorRadius:
		return m.MajorRate * (m.MinorRadius - d) / (m.MinorRadius - m.MajorRadius), true
	}
	return 0, false
}

// attenuate applies WallFactor once per crossed wall.
func (m ThreeState) attenuate(rate float64, walls int) float64 {
	for ; walls > 0; walls-- {
		rate *= m.WallFactor
	}
	return rate
}

// Matrix is the detection-rate matrix F of §6.2: Rates[r][c] is the
// probability (or observed frequency) that a tag staying in cell c is
// detected by reader r in one time unit.
type Matrix struct {
	Readers []Reader
	Cells   *CellSpace
	Rates   [][]float64 // [reader][cell]
}

// wallSlack widens a reader's reach box before walls are tested against it.
// Segment.Intersects counts segments that come within 1e-9 m of touching, so
// a wall whose bounding box misses the box by more than this never crosses a
// ray inside it.
const wallSlack = 1e-6

// NewTruthMatrix builds the ground-truth F of a three-state model: the
// matrix the reading generator samples from. Entry [r][c] is bit for bit
// model.Rate at the centre of cell c, but each reader is evaluated only where
// the rate can be non-zero: at the cells of its own floor whose centre lies
// within the model's radius along both axes (a distance is at least either
// of its legs), counting crossings only against that floor's walls near
// those cells. Every other entry is 0.
func NewTruthMatrix(cells *CellSpace, readers []Reader, model ThreeState) *Matrix {
	g := cells.Grid
	per := g.NumCells()
	centers := make([]geom.Point, per)
	for i := range centers {
		centers[i] = g.CellCenter(i)
	}
	radius := math.Max(model.MajorRadius, model.MinorRadius)
	m := &Matrix{Readers: readers, Cells: cells, Rates: make([][]float64, len(readers))}
	var cols, rows []int
	var near []geom.Segment
	for ri, r := range readers {
		row := make([]float64, cells.NumCells())
		m.Rates[ri] = row
		if r.Floor < 0 || r.Floor >= cells.Plan.NumFloors() {
			continue
		}
		// The columns and rows in reach, offset by the subtraction Dist
		// itself does; a NaN offset or radius keeps its line. box spans
		// the antenna and every centre visited, so it holds every ray cast.
		box := geom.Rect{Min: r.Pos, Max: r.Pos}
		cols = cols[:0]
		for c := 0; c < g.Cols; c++ {
			if x := centers[c].X; !(math.Abs(r.Pos.X-x) > radius) {
				cols = append(cols, c)
				box.Min.X, box.Max.X = math.Min(box.Min.X, x), math.Max(box.Max.X, x)
			}
		}
		rows = rows[:0]
		for y := 0; y < g.Rows; y++ {
			if cy := centers[y*g.Cols].Y; !(math.Abs(r.Pos.Y-cy) > radius) {
				rows = append(rows, y)
				box.Min.Y, box.Max.Y = math.Min(box.Min.Y, cy), math.Max(box.Max.Y, cy)
			}
		}
		attenuated := model.WallFactor < 1
		if attenuated {
			near = wallsNear(near[:0], cells.Plan, r.Floor, box)
		}
		base := r.Floor * per
		for _, y := range rows {
			for _, x := range cols {
				i := y*g.Cols + x
				p := centers[i]
				rate, ok := model.reach(r.Pos.Dist(p))
				if !ok {
					continue
				}
				if attenuated {
					ray := geom.Seg(r.Pos, p)
					crossed := 0
					for _, w := range near {
						if ray.Intersects(w) {
							crossed++
						}
					}
					rate = model.attenuate(rate, crossed)
				}
				row[base+i] = rate
			}
		}
	}
	return m
}

// wallsNear appends to dst the walls of the floor whose bounding box comes
// within wallSlack of box: every wall a ray inside box can cross. A NaN
// bound keeps every wall of the floor.
func wallsNear(dst []geom.Segment, plan *floorplan.Plan, floor int, box geom.Rect) []geom.Segment {
	for _, w := range plan.Walls() {
		s := w.Seg
		if w.Floor != floor ||
			math.Max(s.A.X, s.B.X) < box.Min.X-wallSlack || math.Min(s.A.X, s.B.X) > box.Max.X+wallSlack ||
			math.Max(s.A.Y, s.B.Y) < box.Min.Y-wallSlack || math.Min(s.A.Y, s.B.Y) > box.Max.Y+wallSlack {
			continue
		}
		dst = append(dst, s)
	}
	return dst
}

// Calibrate reproduces the paper's empirical construction of F (§6.2): a tag
// is (virtually) kept in each cell for `samples` time units and the number
// of detections by each reader is counted. The result is the learned matrix
// F̂ whose entries are observed frequencies — equal to truth in expectation
// but carrying the sampling noise a physical calibration would.
func Calibrate(truth *Matrix, samples int, rng *stats.RNG) *Matrix {
	if samples <= 0 {
		samples = 1
	}
	learned := &Matrix{
		Readers: truth.Readers,
		Cells:   truth.Cells,
		Rates:   make([][]float64, len(truth.Readers)),
	}
	for ri := range truth.Readers {
		row := make([]float64, truth.Cells.NumCells())
		for c, p := range truth.Rates[ri] {
			if p <= 0 {
				continue
			}
			hits := 0
			for s := 0; s < samples; s++ {
				if rng.Bernoulli(p) {
					hits++
				}
			}
			row[c] = float64(hits) / float64(samples)
		}
		learned.Rates[ri] = row
	}
	return learned
}

// DetectAt samples the set of readers detecting a tag in the given cell,
// assuming readers behave independently (§6.4).
func (m *Matrix) DetectAt(cell int, rng *stats.RNG) Set {
	var ids []int
	for ri := range m.Readers {
		if p := m.Rates[ri][cell]; p > 0 && rng.Bernoulli(p) {
			ids = append(ids, m.Readers[ri].ID)
		}
	}
	return NewSet(ids...)
}

// ReaderByID returns the reader with the given ID.
func (m *Matrix) ReaderByID(id int) (Reader, bool) {
	for _, r := range m.Readers {
		if r.ID == id {
			return r, true
		}
	}
	return Reader{}, false
}
