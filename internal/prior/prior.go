// Package prior implements the a-priori probabilistic model of the paper:
// the distribution p*(l|R) mapping a set of detecting readers to a
// distribution over locations (§6.2), and the construction of the l-sequence
// Γ = (Λ, ρ) from a reading sequence (§2).
//
// The default formula is the paper's own:
//
//	p*(l|R) = Σ_{c ∈ Cells(l)} Π_{r ∈ R} F[r,c]  /  Σ_{c ∈ Cells} Π_{r ∈ R} F[r,c]
//
// with a uniform fallback over all locations when the denominator is zero
// (no cell is compatible with the observed reader set). Cells is the set of
// cells belonging to some location.
//
// A full-likelihood variant is provided as an ablation (DESIGN.md A1): it
// additionally multiplies by (1 − F[r',c]) for every reader r' that did NOT
// detect the object, making missed reads informative.
package prior

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/rfid"
)

// Formula selects how cell weights are computed from the detection matrix.
type Formula int

const (
	// PaperFormula is §6.2's formula: the weight of a cell is the product
	// of the detection rates of the readers that fired.
	PaperFormula Formula = iota
	// FullLikelihood additionally multiplies by (1 − F[r',c]) for every
	// silent reader r', i.e. the exact likelihood of the observed reader
	// set under independent readers.
	FullLikelihood
)

// String implements fmt.Stringer.
func (f Formula) String() string {
	if f == FullLikelihood {
		return "full-likelihood"
	}
	return "paper"
}

// Options configures a Model. The zero value reproduces the paper exactly.
type Options struct {
	// Formula selects the cell-weight formula (default PaperFormula).
	Formula Formula
	// MinProb, when positive, prunes candidate locations whose probability
	// falls below it and renormalizes the rest (ablation A3). The paper
	// keeps every non-zero candidate.
	MinProb float64
}

// Model computes p*(l|R) from a detection matrix (typically the calibrated
// F̂ of rfid.Calibrate) and converts reading sequences into l-sequences.
// A Model caches one distribution per distinct set of known readers and is
// safe for concurrent use.
type Model struct {
	f     *rfid.Matrix
	opts  Options
	known map[int]bool // IDs of the matrix's readers

	mu    sync.Mutex
	cache map[string][]float64
}

// New returns a model over the given detection matrix.
func New(f *rfid.Matrix, opts Options) *Model {
	known := make(map[int]bool, len(f.Readers))
	for _, r := range f.Readers {
		known[r.ID] = true
	}
	return &Model{f: f, opts: opts, known: known, cache: make(map[string][]float64)}
}

// NumLocations returns the number of locations of the underlying plan.
func (m *Model) NumLocations() int { return m.f.Cells.Plan.NumLocations() }

// Dist returns p*(·|R): the probability, for each location ID, that the
// object is there given that it was detected by exactly the readers in R.
// The returned slice is owned by the model's cache and must not be modified.
func (m *Model) Dist(r rfid.Set) []float64 {
	key := m.cacheKey(r)
	m.mu.Lock()
	d, ok := m.cache[key]
	m.mu.Unlock()
	if ok {
		return d
	}
	d = m.compute(r)
	m.mu.Lock()
	m.cache[key] = d
	m.mu.Unlock()
	return d
}

// cacheKey returns the key of r's known readers. p*(·|R) ignores readers
// the matrix does not know, so sets that differ only in unknown IDs share
// one cache entry, and a client posting ever-new reader IDs cannot grow
// the cache.
func (m *Model) cacheKey(r rfid.Set) string {
	ids := r.IDs()
	for i, id := range ids {
		if !m.known[id] {
			known := append([]int(nil), ids[:i]...)
			for _, id := range ids[i+1:] {
				if m.known[id] {
					known = append(known, id)
				}
			}
			return rfid.NewSet(known...).Key()
		}
	}
	return r.Key()
}

func (m *Model) compute(r rfid.Set) []float64 {
	plan := m.f.Cells.Plan
	numLoc := plan.NumLocations()
	dist := make([]float64, numLoc)

	// Row indices of the readers in R (matrix rows are positional).
	rows := make([]int, 0, r.Len())
	silent := make([]int, 0, len(m.f.Readers))
	for i, reader := range m.f.Readers {
		if r.Contains(reader.ID) {
			rows = append(rows, i)
		} else {
			silent = append(silent, i)
		}
	}

	total := 0.0
	for loc := 0; loc < numLoc; loc++ {
		var sum float64
		for _, c := range m.f.Cells.CellsOfLocation(loc) {
			w := 1.0
			for _, ri := range rows {
				w *= m.f.Rates[ri][c]
				if w == 0 {
					break
				}
			}
			if w == 0 {
				continue
			}
			if m.opts.Formula == FullLikelihood {
				for _, ri := range silent {
					w *= 1 - m.f.Rates[ri][c]
					if w == 0 {
						break
					}
				}
				if w == 0 {
					continue
				}
			}
			sum += w
		}
		dist[loc] = sum
		total += sum
	}
	if total <= 0 {
		// No a-priori knowledge for this reader set: uniform over all
		// locations (§6.2).
		for loc := range dist {
			dist[loc] = 1 / float64(numLoc)
		}
		return dist
	}
	for loc := range dist {
		dist[loc] /= total
	}
	if m.opts.MinProb > 0 {
		dist = prune(dist, m.opts.MinProb)
	}
	return dist
}

// prune zeroes entries below minProb and renormalizes. If everything falls
// below the threshold, the largest entry is kept.
func prune(dist []float64, minProb float64) []float64 {
	best, bestP := -1, 0.0
	for i, p := range dist {
		if p > bestP {
			best, bestP = i, p
		}
	}
	total := 0.0
	kept := 0
	for i, p := range dist {
		if p < minProb {
			dist[i] = 0
		} else {
			total += p
			kept++
		}
	}
	if kept == 0 {
		if best >= 0 {
			dist[best] = 1
		}
		return dist
	}
	for i := range dist {
		dist[i] /= total
	}
	return dist
}

// LSequence converts a reading sequence into the l-sequence Γ = (Λ, ρ): for
// each timestamp, the candidate locations with non-zero probability under
// p*(·|R_τ).
func (m *Model) LSequence(seq rfid.Sequence) (*core.LSequence, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	ls := &core.LSequence{Steps: make([]core.Step, len(seq))}
	for t, reading := range seq {
		dist := m.Dist(reading.Readers)
		var cands []core.Candidate
		for loc, p := range dist {
			if p > 0 {
				cands = append(cands, core.Candidate{Loc: loc, P: p})
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("prior: no candidate location at timestamp %d (readers %v)", t, reading.Readers)
		}
		ls.Steps[t].Candidates = cands
	}
	return ls, nil
}

// CacheSize returns the number of distinct sets of known readers seen so
// far.
func (m *Model) CacheSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}
