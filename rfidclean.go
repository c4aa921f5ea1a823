package rfidclean

import (
	"context"
	"io"
	"time"

	"fmt"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/prior"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/stats"
)

// Geometry.
type (
	// Point is a point in the plane, in meters.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectWH returns the rectangle with minimum corner (x, y), width w, height h.
func RectWH(x, y, w, h float64) Rect { return geom.RectWH(x, y, w, h) }

// Floor plans.
type (
	// Plan is an immutable multi-floor building map.
	Plan = floorplan.Plan
	// MapBuilder assembles a Plan from locations, doors and stairs.
	MapBuilder = floorplan.Builder
	// Location is a room, corridor or stairwell on a floor.
	Location = floorplan.Location
	// Door is a passage between two locations.
	Door = floorplan.Door
	// LocationKind classifies locations.
	LocationKind = floorplan.Kind
)

// Location kinds.
const (
	Room      = floorplan.Room
	Corridor  = floorplan.Corridor
	Stairwell = floorplan.Stairwell
)

// NewMapBuilder returns an empty map builder.
func NewMapBuilder() *MapBuilder { return floorplan.NewBuilder() }

// RFID substrate.
type (
	// Reader is an RFID reader antenna at a fixed position.
	Reader = rfid.Reader
	// ReaderSet is a canonical set of reader IDs.
	ReaderSet = rfid.Set
	// Reading is one (timestamp, detecting readers) observation.
	Reading = rfid.Reading
	// ReadingSequence is one reading per timestamp of the window.
	ReadingSequence = rfid.Sequence
	// CellSpace indexes the grid cells of every floor (§6.2's grid).
	CellSpace = rfid.CellSpace
	// ThreeState is the three-state antenna detection model.
	ThreeState = rfid.ThreeState
	// DetectionMatrix is the matrix F[r,c] of §6.2.
	DetectionMatrix = rfid.Matrix
)

// NewReaderSet returns the canonical set of the given reader IDs.
func NewReaderSet(ids ...int) ReaderSet { return rfid.NewSet(ids...) }

// DefaultThreeState returns the detection model used by the bundled
// synthetic datasets.
func DefaultThreeState() ThreeState { return rfid.DefaultThreeState() }

// NewCellSpace partitions every floor of a plan into square cells.
func NewCellSpace(plan *Plan, cellSize float64) (*CellSpace, error) {
	return rfid.NewCellSpace(plan, cellSize)
}

// NewTruthMatrix builds the ground-truth detection matrix of a three-state
// model, evaluating each reader only at the cells in its reach.
func NewTruthMatrix(cells *CellSpace, readers []Reader, model ThreeState) *DetectionMatrix {
	return rfid.NewTruthMatrix(cells, readers, model)
}

// Calibrate learns an empirical detection matrix the way §6.2 does: by
// sampling each (reader, cell) pair the given number of times.
func Calibrate(truth *DetectionMatrix, samples int, rng *RNG) *DetectionMatrix {
	return rfid.Calibrate(truth, samples, rng)
}

// Prior model.
type (
	// Prior computes p*(l|R) and converts readings into l-sequences.
	Prior = prior.Model
	// PriorOptions selects the prior's formula and pruning.
	PriorOptions = prior.Options
	// PriorFormula selects how cell weights are computed.
	PriorFormula = prior.Formula
)

// Prior formulas.
const (
	// PaperFormula is §6.2's product-of-fired-readers formula.
	PaperFormula = prior.PaperFormula
	// FullLikelihood additionally accounts for silent readers.
	FullLikelihood = prior.FullLikelihood
)

// NewPrior returns a p*(l|R) model over a detection matrix.
func NewPrior(f *DetectionMatrix, opts PriorOptions) *Prior { return prior.New(f, opts) }

// Constraints.
type (
	// ConstraintSet holds DU, LT and TT integrity constraints.
	ConstraintSet = constraints.Set
	// EndLatencyMode selects end-of-window latency semantics.
	EndLatencyMode = constraints.EndLatencyMode
)

// End-of-window latency semantics.
const (
	// StrictEnd follows Definition 2 literally.
	StrictEnd = constraints.StrictEnd
	// LenientEnd follows Algorithm 1 as printed.
	LenientEnd = constraints.LenientEnd
)

// NewConstraintSet returns an empty constraint set.
func NewConstraintSet() *ConstraintSet { return constraints.NewSet() }

// InferDU derives the direct-unreachability constraints implied by a map.
func InferDU(plan *Plan) *ConstraintSet { return constraints.InferDU(plan) }

// InferLT derives minimum-stay latency constraints for every location whose
// kind is not excluded.
func InferLT(plan *Plan, minStay int, exclude ...LocationKind) *ConstraintSet {
	return constraints.InferLT(plan, minStay, exclude...)
}

// InferTT derives traveling-time constraints from minimum walking distances
// and the objects' maximum speed; a positive cap truncates horizons.
func InferTT(plan *Plan, maxSpeed float64, cap int) (*ConstraintSet, error) {
	return constraints.InferTT(plan, maxSpeed, cap)
}

// Core ct-graph machinery (for advanced use; System/Cleaned wrap it).
type (
	// LSequence is the probabilistic location sequence Γ = (Λ, ρ).
	LSequence = core.LSequence
	// LStep holds the candidate locations of one timestamp.
	LStep = core.Step
	// LCandidate is one (location, probability) candidate.
	LCandidate = core.Candidate
	// CTGraph is a conditioned trajectory graph.
	CTGraph = core.Graph
	// BuildOptions configures ct-graph construction.
	BuildOptions = core.Options
	// BuildExplain is Algorithm 1's explain report (attach one to
	// BuildOptions.Explain to collect it).
	BuildExplain = core.BuildExplain
	// ExplainStep is one timestamp's entry of a BuildExplain.
	ExplainStep = core.ExplainStep
	// OracleResult is the brute-force conditioning baseline's output.
	OracleResult = core.OracleResult
)

// Streaming.
type (
	// LocProb is one (location ID, probability) entry of a filtered
	// distribution, as returned by BuildState.Distribution/TopLocations.
	LocProb = core.LocProb
	// BuildState is the online cleaner. It keeps Algorithm 1's forward pass
	// alive across readings: Observe appends one timestamp, Distribution and
	// TopLocations answer the filtered distribution of the object's current
	// location, and Smooth runs the backward phase over every observed
	// timestamp and returns the quotient ct-graph, byte for byte
	// Build(…).Quotient() over the same readings. Release gives the state's
	// pooled memory back once the stream ends.
	BuildState = core.BuildState
)

// NewBuildState returns a streaming build over the given constraints whose
// Smooth always returns the quotient ct-graph, as a serving session stores
// it. Because its raw graph never leaves it, it drops TL bookkeeping that
// can no longer prune and keeps far fewer nodes on long streams than
// Algorithm 1's graph has.
func NewBuildState(ic *ConstraintSet) *BuildState {
	return core.NewBuildState(ic)
}

// DecodeCTGraph reads a ct-graph previously written with CTGraph.Encode or
// CTGraph.AppendBinary, letting cleaned data be warehoused and queried
// without re-cleaning.
func DecodeCTGraph(r io.Reader) (*CTGraph, error) { return core.Decode(r) }

// ErrNoValidTrajectory reports that the constraints exclude every
// interpretation of the readings.
var ErrNoValidTrajectory = core.ErrNoValidTrajectory

// ErrReleased is what a BuildState's Observe, Smooth, Distribution and
// TopLocations return after Release.
var ErrReleased = core.ErrReleased

// BuildCTGraph runs Algorithm 1 directly on an l-sequence.
func BuildCTGraph(ls *LSequence, ic *ConstraintSet, opts *BuildOptions) (*CTGraph, error) {
	return core.Build(ls, ic, opts)
}

// EnumerateConditioned is the naive exact conditioner (testing/baselines).
func EnumerateConditioned(ls *LSequence, ic *ConstraintSet, mode EndLatencyMode, limit int) (*OracleResult, error) {
	return core.EnumerateConditioned(ls, ic, mode, limit)
}

// Queries.
type (
	// Pattern is a trajectory-query pattern (`?`, `l`, `l[n]`).
	Pattern = query.Pattern
	// PatternCondition is one element of a Pattern.
	PatternCondition = query.Condition
)

// Wild returns the `?` pattern condition.
func Wild() PatternCondition { return query.Wild() }

// At returns the pattern condition "a run of loc of length >= minLen".
func At(loc, minLen int) PatternCondition { return query.At(loc, minLen) }

// ParsePattern parses the paper's pattern syntax, resolving location names.
func ParsePattern(s string, resolve func(name string) (int, error)) (Pattern, error) {
	return query.ParsePattern(s, resolve)
}

// MatchesPattern evaluates a pattern on a concrete location sequence.
func MatchesPattern(p Pattern, locs []int) (bool, error) { return query.Matches(p, locs) }

// Synthetic generation.
type (
	// GroundTruth is a generated ground-truth trajectory.
	GroundTruth = gen.Trajectory
	// GeneratorConfig parameterizes the trajectory generator (§6.4).
	GeneratorConfig = gen.TrajectoryConfig
)

// NewGeneratorConfig returns the paper's generator parameters.
func NewGeneratorConfig(duration int) GeneratorConfig { return gen.NewConfig(duration) }

// GenerateTrajectory produces a ground-truth trajectory over a plan.
func GenerateTrajectory(plan *Plan, cfg GeneratorConfig, rng *RNG) (*GroundTruth, error) {
	return gen.GenerateTrajectory(plan, cfg, rng)
}

// GenerateReadings samples RFID readings along a ground-truth trajectory.
func GenerateReadings(traj *GroundTruth, f *DetectionMatrix, rng *RNG) ReadingSequence {
	return gen.GenerateReadings(traj, f, rng)
}

// RNG is a small seedable random number generator used throughout for
// reproducible synthetic data.
type RNG = stats.RNG

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// System bundles a deployment: the map, the readers, the grid, the
// ground-truth detection matrix and (after calibration) the prior. It is the
// high-level entry point; the underlying pieces remain accessible for
// advanced use.
type System struct {
	Plan    *Plan
	Readers []Reader
	Cells   *CellSpace
	// Truth is the detection matrix implied by the detection model; the
	// synthetic reading generator samples from it.
	Truth *DetectionMatrix
	// Prior is p*(l|R); nil until CalibratePrior or SetPrior is called.
	Prior *Prior
}

// NewSystem builds a System over a plan: it partitions the floors into
// square cells of the given size and evaluates the three-state model at
// every (reader, cell) pair it can reach; every other pair has rate 0.
func NewSystem(plan *Plan, readers []Reader, model ThreeState, cellSize float64) (*System, error) {
	if plan == nil {
		return nil, fmt.Errorf("rfidclean: nil plan")
	}
	if len(readers) == 0 {
		return nil, fmt.Errorf("rfidclean: no readers")
	}
	cells, err := rfid.NewCellSpace(plan, cellSize)
	if err != nil {
		return nil, err
	}
	return &System{
		Plan:    plan,
		Readers: readers,
		Cells:   cells,
		Truth:   rfid.NewTruthMatrix(cells, readers, model),
	}, nil
}

// CalibratePrior learns p*(l|R) the way §6.2 does: a (virtual) tag is kept
// in every cell for `samples` time units and detection frequencies are
// recorded, yielding the empirical matrix F̂ the prior is computed from.
func (s *System) CalibratePrior(samples int, rng *RNG) {
	s.Prior = prior.New(rfid.Calibrate(s.Truth, samples, rng), prior.Options{})
}

// errNoPrior is what cleaning reports before a prior is installed.
var errNoPrior = fmt.Errorf("rfidclean: no prior; call CalibratePrior or SetPrior first")

// SetPrior installs a custom prior (e.g. with PriorOptions different from
// the paper's defaults).
func (s *System) SetPrior(p *Prior) { s.Prior = p }

// ConstraintParams identifies one DU+LT+TT constraint derivation over a
// deployment's map. It is a comparable value type, so serving layers can use
// it directly as a map key when memoizing inferred constraint sets.
type ConstraintParams struct {
	// MaxSpeed (m/s) drives TT inference; must be > 0.
	MaxSpeed float64
	// MinStay (time points) drives LT inference on non-corridor locations.
	MinStay int
	// TTCap truncates TT horizons (0 = uncapped).
	TTCap int
}

// Constraints derives the constraint set identified by p. It is
// InferConstraints with the parameters gathered into a cacheable key; the
// returned set is read-only after inference and safe for concurrent use.
func (s *System) Constraints(p ConstraintParams) (*ConstraintSet, error) {
	return s.InferConstraints(p.MaxSpeed, p.MinStay, p.TTCap)
}

// InferConstraints derives the full DU+LT+TT constraint set from the map:
// maxSpeed (m/s) drives the TT horizons, minStay (time points) the latency
// constraints on non-corridor locations, and ttCap optionally truncates TT
// horizons (0 = uncapped).
func (s *System) InferConstraints(maxSpeed float64, minStay, ttCap int) (*ConstraintSet, error) {
	ic := constraints.InferDU(s.Plan)
	ic.Merge(constraints.InferLT(s.Plan, minStay, floorplan.Corridor))
	tt, err := constraints.InferTT(s.Plan, maxSpeed, ttCap)
	if err != nil {
		return nil, err
	}
	ic.Merge(tt)
	return ic, nil
}

// Clean interprets a reading sequence through the prior and conditions it on
// the integrity constraints, returning the cleaned trajectory data. A nil
// constraint set cleans with no constraints (the conditioned distribution
// then equals the prior). It returns ErrNoValidTrajectory when the
// constraints exclude every interpretation of the readings.
func (s *System) Clean(readings ReadingSequence, ic *ConstraintSet, opts *BuildOptions) (*Cleaned, error) {
	return s.CleanCtx(context.Background(), readings, ic, opts)
}

// CleanCtx is Clean with observability: when ctx carries an obs.Trace the
// prior derivation and the build phases record spans into it, and when
// opts.Explain is set the returned Cleaned carries an explain report
// (Cleaned.Explain). With neither attached it does the same work as Clean.
func (s *System) CleanCtx(ctx context.Context, readings ReadingSequence, ic *ConstraintSet, opts *BuildOptions) (*Cleaned, error) {
	return s.CleanGroupCtx(ctx, []ReadingSequence{readings}, ic, opts)
}

// CleanGroup cleans the readings of several tags known to move together
// (attached to the same pallet, cart or person — the supply-chain group
// correlation the paper's §8 lists as future work). The members' reader sets
// are fused at the grid-cell level into one joint l-sequence, which is then
// conditioned like a single object's: a group of one is Clean. All sequences
// must cover the same window.
func (s *System) CleanGroup(readings []ReadingSequence, ic *ConstraintSet, opts *BuildOptions) (*Cleaned, error) {
	return s.CleanGroupCtx(context.Background(), readings, ic, opts)
}

// CleanGroupCtx is CleanGroup with observability; see CleanCtx.
func (s *System) CleanGroupCtx(ctx context.Context, readings []ReadingSequence, ic *ConstraintSet, opts *BuildOptions) (*Cleaned, error) {
	if s.Prior == nil {
		return nil, errNoPrior
	}
	_, sp := obs.Start(ctx, "prior.lsequence")
	deriveStart := time.Now()
	ls, err := s.Prior.LSequence(readings...)
	derive := time.Since(deriveStart)
	if len(readings) == 1 {
		sp.Int("timestamps", int64(len(readings[0])))
	} else {
		sp.Int("members", int64(len(readings)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	g, err := core.BuildCtx(ctx, ls, ic, opts)
	if err != nil {
		return nil, err
	}
	return newCleanedExplained(g, s.Plan, opts, derive), nil
}

// SmoothState conditions the readings observed so far by a BuildState and
// wraps the result exactly like Clean wraps a full build: the
// returned Cleaned carries the same query engine, and, when opts.Explain is
// set, an explain report whose counters match a full build's (DeriveNanos is
// zero — the l-sequence derivation already happened reading by reading, on
// the Candidates path). The result is independent of the state: the session
// may keep observing and smoothing without invalidating it.
func (s *System) SmoothState(st *BuildState, opts *BuildOptions) (*Cleaned, error) {
	g, err := st.Smooth(opts)
	if err != nil {
		return nil, err
	}
	return newCleanedExplained(g, s.Plan, opts, 0), nil
}

// Candidates converts one reading's detecting-reader set into the candidate
// locations with non-zero probability under the prior — the per-timestamp
// input of BuildState.Observe. The result is freshly allocated and owned by
// the caller.
func (s *System) Candidates(r ReaderSet) ([]LCandidate, error) {
	if s.Prior == nil {
		return nil, errNoPrior
	}
	ls, err := s.Prior.LSequence(ReadingSequence{{Readers: r}})
	if err != nil {
		return nil, err
	}
	return ls.Steps[0].Candidates, nil
}

// LocationID resolves a location name to its ID.
func (s *System) LocationID(name string) (int, error) {
	l, ok := s.Plan.LocationByName(name)
	if !ok {
		return 0, fmt.Errorf("rfidclean: unknown location %q", name)
	}
	return l.ID, nil
}

// ParsePattern parses a trajectory-query pattern using the system's location
// names.
func (s *System) ParsePattern(pattern string) (Pattern, error) {
	return query.ParsePattern(pattern, s.LocationID)
}
