package rfidclean

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/floorplan"
)

// Deployment is a serializable description of an RFID installation: the
// map, the reader placement, the detection model and the calibration
// parameters. It is the unit of configuration the CLI tools exchange, so a
// deployment authored once (or exported from a built-in dataset) can be
// cleaned against repeatedly.
type Deployment struct {
	// Name labels the deployment.
	Name string
	// Plan is the building map.
	Plan *Plan
	// Readers is the antenna placement.
	Readers []Reader
	// Detection is the three-state antenna model assumed for calibration
	// and synthetic generation.
	Detection ThreeState
	// CellSize is the grid cell side in meters (§6.2 uses 0.5).
	CellSize float64
	// CalibrationSamples is the number of samples per cell when learning
	// p*(l|R) (§6.2 uses 30).
	CalibrationSamples int
	// Seed drives the calibration sampling.
	Seed uint64
}

// deploymentJSON is the wire form; the plan is nested in floorplan's format.
type deploymentJSON struct {
	Name               string          `json:"name"`
	Plan               json.RawMessage `json:"plan"`
	Readers            []Reader        `json:"readers"`
	Detection          ThreeState      `json:"detection"`
	CellSize           float64         `json:"cellSize"`
	CalibrationSamples int             `json:"calibrationSamples"`
	Seed               uint64          `json:"seed"`
}

// Encode writes the deployment as JSON.
func (d *Deployment) Encode(w io.Writer) error {
	if d.Plan == nil {
		return fmt.Errorf("rfidclean: deployment has no plan")
	}
	var plan bytes.Buffer
	if err := d.Plan.Encode(&plan); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(deploymentJSON{
		Name:               d.Name,
		Plan:               json.RawMessage(bytes.TrimSpace(plan.Bytes())),
		Readers:            d.Readers,
		Detection:          d.Detection,
		CellSize:           d.CellSize,
		CalibrationSamples: d.CalibrationSamples,
		Seed:               d.Seed,
	})
}

// EncodeBytes returns Encode's output as a trimmed byte slice, convenient
// for embedding a deployment as a JSON value (json.RawMessage) inside a
// larger document. The encoding is deterministic for a given deployment, so
// re-encoding a decoded deployment reproduces the same bytes — the property
// the server's persistence layer relies on for stable snapshot files.
func (d *Deployment) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// DecodeDeployment reads a deployment written by Encode (or hand-authored).
func DecodeDeployment(r io.Reader) (*Deployment, error) {
	var in deploymentJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("rfidclean: decoding deployment: %w", err)
	}
	plan, err := floorplan.Decode(bytes.NewReader(in.Plan))
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Name:               in.Name,
		Plan:               plan,
		Readers:            in.Readers,
		Detection:          in.Detection,
		CellSize:           in.CellSize,
		CalibrationSamples: in.CalibrationSamples,
		Seed:               in.Seed,
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Instantiating a deployment (System) allocates, per floor, one int per grid
// cell (the cell space) and one float64 per reader and cell for each of the
// truth and calibrated detection matrices, and calibration draws up to
// CalibrationSamples Bernoulli samples per reader and cell. validate bounds
// all three so a deployment from an untrusted source cannot exhaust memory or
// stall the process. The paper's largest dataset (SYN2: 8 floors of 22x10 m
// at 0.5 m cells, 104 readers, 30 samples) needs 7,040 cells, 732,160
// detection entries and 21,964,800 draws — 595x, 11x and 24x under these.
const (
	maxGridCells        = 1 << 22 // 32 MiB of cell-to-location index
	maxDetectionEntries = 1 << 23 // 64 MiB per detection matrix, two matrices
	maxCalibrationDraws = 1 << 29 // a few seconds of sampling
)

func (d *Deployment) validate() error {
	if d.Plan == nil {
		return fmt.Errorf("rfidclean: deployment has no plan")
	}
	if len(d.Readers) == 0 {
		return fmt.Errorf("rfidclean: deployment has no readers")
	}
	seen := make(map[int]bool, len(d.Readers))
	for _, r := range d.Readers {
		if seen[r.ID] {
			return fmt.Errorf("rfidclean: duplicate reader ID %d", r.ID)
		}
		seen[r.ID] = true
		if r.Floor < 0 || r.Floor >= d.Plan.NumFloors() {
			return fmt.Errorf("rfidclean: reader %d on floor %d; plan has %d floors", r.ID, r.Floor, d.Plan.NumFloors())
		}
	}
	if !(d.CellSize > 0) || math.IsInf(d.CellSize, 0) {
		return fmt.Errorf("rfidclean: deployment cell size must be positive and finite")
	}
	if d.CalibrationSamples <= 0 {
		return fmt.Errorf("rfidclean: deployment needs at least one calibration sample per cell")
	}
	// Counted in float64, rounding each grid side up, so a tiny cell size
	// over a large outline cannot overflow: an upper bound on the cells
	// NewCellSpace allocates.
	outline := d.Plan.Outline()
	cells := math.Max(1, math.Ceil(outline.Width()/d.CellSize)) *
		math.Max(1, math.Ceil(outline.Height()/d.CellSize)) *
		float64(d.Plan.NumFloors())
	entries := cells * float64(len(d.Readers))
	switch {
	case cells > maxGridCells:
		return fmt.Errorf("rfidclean: deployment grid has %.3g cells at cell size %g; the limit is %d", cells, d.CellSize, maxGridCells)
	case entries > maxDetectionEntries:
		return fmt.Errorf("rfidclean: deployment has %.3g reader-cell pairs (%d readers); the limit is %d", entries, len(d.Readers), maxDetectionEntries)
	case entries*float64(d.CalibrationSamples) > maxCalibrationDraws:
		return fmt.Errorf("rfidclean: deployment calibration needs %.3g samples (%d per reader and cell); the limit is %d",
			entries*float64(d.CalibrationSamples), d.CalibrationSamples, maxCalibrationDraws)
	}
	return nil
}

// System instantiates the deployment: it builds the cell space and the
// ground-truth detection matrix and calibrates the prior from the
// deployment's seed, yielding a ready-to-clean System.
func (d *Deployment) System() (*System, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	sys, err := NewSystem(d.Plan, d.Readers, d.Detection, d.CellSize)
	if err != nil {
		return nil, err
	}
	sys.CalibratePrior(d.CalibrationSamples, NewRNG(d.Seed))
	return sys, nil
}
