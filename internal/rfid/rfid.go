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
// size and precomputes the cell/location correspondence: a cell belongs to
// the location Plan.LocationAt gives for its centre.
func NewCellSpace(plan *floorplan.Plan, cellSize float64) (*CellSpace, error) {
	grid, err := geom.NewGrid(plan.Outline(), cellSize)
	if err != nil {
		return nil, err
	}
	cs := &CellSpace{Plan: plan, Grid: grid}
	per := grid.NumCells()
	total := per * plan.NumFloors()
	cs.locByCell = make([]int, total)
	for id := range cs.locByCell {
		cs.locByCell[id] = -1
	}
	centers := make([]geom.Point, per)
	for i := range centers {
		centers[i] = grid.CellCenter(i)
	}
	// Each location visits only the cells around its bounds, in plan order,
	// with LocationAt's tie rule: a location strictly containing a centre
	// takes it, otherwise the first whose boundary holds it.
	strict := make([]bool, total)
	for _, l := range plan.Locations() {
		if l.Floor < 0 || l.Floor >= plan.NumFloors() {
			continue
		}
		x0, x1 := cellRange(grid.Region.Min.X, cellSize, grid.Cols, l.Bounds.Min.X, l.Bounds.Max.X)
		y0, y1 := cellRange(grid.Region.Min.Y, cellSize, grid.Rows, l.Bounds.Min.Y, l.Bounds.Max.Y)
		base := l.Floor * per
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				i := y*grid.Cols + x
				id := base + i
				switch {
				case strict[id]:
				case l.Bounds.ContainsStrict(centers[i]):
					cs.locByCell[id], strict[id] = l.ID, true
				case cs.locByCell[id] < 0 && l.Bounds.Contains(centers[i]):
					cs.locByCell[id] = l.ID
				}
			}
		}
	}
	// Every location's cells, ascending, in one exactly sized backing array.
	off := make([]int, plan.NumLocations()+1)
	for _, loc := range cs.locByCell {
		if loc >= 0 {
			off[loc+1]++
		}
	}
	for loc := range plan.NumLocations() {
		off[loc+1] += off[loc]
	}
	cells := make([]int, off[len(off)-1])
	cs.cellsByLoc = make([][]int, plan.NumLocations())
	for loc := range cs.cellsByLoc {
		cs.cellsByLoc[loc] = cells[off[loc]:off[loc]:off[loc+1]]
	}
	for id, loc := range cs.locByCell {
		if loc >= 0 {
			cs.cellsByLoc[loc] = append(cs.cellsByLoc[loc], id)
		}
	}
	return cs, nil
}

// cellRange returns the grid lines [lo, hi) along one axis, of n lines of the
// given size starting at origin, whose centres can lie within [a, b]: one
// line of margin each side absorbs rounding, and a NaN or unbounded bound
// keeps every line on its side.
func cellRange(origin, size float64, n int, a, b float64) (lo, hi int) {
	lo, hi = 0, n
	if f := math.Floor((a-origin)/size) - 1; f > 0 {
		lo = int(math.Min(f, float64(n)))
	}
	if f := math.Ceil((b-origin)/size) + 1; f < float64(n) {
		hi = int(math.Max(f, 0))
	}
	return lo, hi
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

// Matrix is the detection-rate matrix F of §6.2: Rate(r, c) is the
// probability (or observed frequency) that a tag staying in cell c is
// detected by reader r in one time unit.
//
// A reader detects nothing on other floors or past its minor radius, so F is
// almost all zeros. Each row is stored as its span: the entries from the
// reader's first to its last non-zero cell, in global cell order; every entry
// outside the span is 0. The spans of all readers lie back to back in one
// backing slice, and a matrix calibrated from another shares its spans.
type Matrix struct {
	Readers []Reader
	Cells   *CellSpace

	first []int     // per reader: the global cell ID of its span's first entry
	off   []int     // reader r's span is rates[off[r]:off[r+1]]
	rates []float64 // every span, in reader order
}

// Row returns reader r's span: the global cell ID of its first entry and the
// entries themselves, cell first+k at index k. Every cell outside the span
// has rate 0. The returned slice must not be modified.
func (m *Matrix) Row(r int) (first int, rates []float64) {
	return m.first[r], m.rates[m.off[r]:m.off[r+1]]
}

// Rate returns F[r, c]: the entry of reader r (a row index, as in Readers)
// at global cell c.
func (m *Matrix) Rate(r, c int) float64 {
	first, rates := m.Row(r)
	if i := c - first; uint(i) < uint(len(rates)) {
		return rates[i]
	}
	return 0
}

// Bytes returns the size of the matrix's storage: 8 bytes per stored rate
// and 16 per reader for its span (8 more for the end of the last). A matrix
// calibrated from another shares that one's spans, and each reports them.
func (m *Matrix) Bytes() int {
	return 8 * (len(m.rates) + len(m.first) + len(m.off))
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
// those cells. Every other entry is 0, and each row keeps the span from its
// first to its last entry whose bits are not those of +0.
func NewTruthMatrix(cells *CellSpace, readers []Reader, model ThreeState) *Matrix {
	g := cells.Grid
	per := g.NumCells()
	centers := make([]geom.Point, per)
	for i := range centers {
		centers[i] = g.CellCenter(i)
	}
	radius := math.Max(model.MajorRadius, model.MinorRadius)
	// The non-zero rates, reader after reader, each reader's in cell order;
	// counts[r] of them are reader r's.
	type entry struct {
		reader, cell int
		rate         float64
	}
	var found []entry
	counts := make([]int, len(readers))
	var cols, rows []int
	var near []geom.Segment
	for ri, r := range readers {
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
		n := len(found)
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
				if math.Float64bits(rate) != 0 {
					found = append(found, entry{ri, base + i, rate})
				}
			}
		}
		counts[ri] = len(found) - n
	}
	m := &Matrix{Readers: readers, Cells: cells, first: make([]int, len(readers)), off: make([]int, len(readers)+1)}
	k := 0
	for ri, n := range counts {
		m.off[ri+1] = m.off[ri]
		if n > 0 {
			m.first[ri] = found[k].cell
			m.off[ri+1] += found[k+n-1].cell - found[k].cell + 1
		}
		k += n
	}
	m.rates = make([]float64, m.off[len(readers)])
	for _, e := range found {
		ri := e.reader
		m.rates[m.off[ri]+e.cell-m.first[ri]] = e.rate
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
	// Only a span entry can be non-zero, so visiting the spans reader by
	// reader, in cell order, draws what a scan of the dense rows would.
	learned := &Matrix{
		Readers: truth.Readers,
		Cells:   truth.Cells,
		first:   truth.first,
		off:     truth.off,
		rates:   make([]float64, len(truth.rates)),
	}
	for i, p := range truth.rates {
		if p <= 0 {
			continue
		}
		hits := 0
		for s := 0; s < samples; s++ {
			if rng.Bernoulli(p) {
				hits++
			}
		}
		learned.rates[i] = float64(hits) / float64(samples)
	}
	return learned
}

// DetectAt samples the set of readers detecting a tag in the given cell,
// assuming readers behave independently (§6.4).
func (m *Matrix) DetectAt(cell int, rng *stats.RNG) Set {
	var ids []int
	for ri := range m.Readers {
		if p := m.Rate(ri, cell); p > 0 && rng.Bernoulli(p) {
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
