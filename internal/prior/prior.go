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
	"strconv"
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
// A Model caches one distribution per distinct tuple of known-reader sets
// and is safe for concurrent use.
type Model struct {
	f     *rfid.Matrix
	opts  Options
	known map[int]bool // IDs of the matrix's readers

	mu    sync.Mutex
	cache map[string]entry
}

// entry is one cached distribution together with its candidates: the
// locations of non-zero probability, in ID order.
type entry struct {
	dist  []float64
	cands []core.Candidate
}

// New returns a model over the given detection matrix.
func New(f *rfid.Matrix, opts Options) *Model {
	known := make(map[int]bool, len(f.Readers))
	for _, r := range f.Readers {
		known[r.ID] = true
	}
	return &Model{f: f, opts: opts, known: known, cache: make(map[string]entry)}
}

// NumLocations returns the number of locations of the underlying plan.
func (m *Model) NumLocations() int { return m.f.Cells.Plan.NumLocations() }

// Dist returns p*(·|R_1, …, R_k): the probability, for each location ID,
// that an object is there given that its j-th tag was detected by exactly
// the readers in sets[j]. One set is §6.2's p*(·|R). Several sets are the
// tags of a group known to move together (attached to the same object or
// pallet), the group-correlation extension the paper's §8 names as future
// work for supply-chain scenarios. Dist returns nil for no set. The returned
// slice is owned by the model's cache and must not be modified.
func (m *Model) Dist(sets ...rfid.Set) []float64 {
	if len(sets) == 0 {
		return nil
	}
	return m.lookup(sets).dist
}

// lookup returns the cache entry of sets, computing it on a miss.
func (m *Model) lookup(sets []rfid.Set) entry {
	var buf [64]byte
	key := m.appendKey(buf[:0], sets)
	m.mu.Lock()
	e, ok := m.cache[string(key)]
	m.mu.Unlock()
	if ok {
		return e
	}
	e.dist = m.compute(sets)
	for loc, p := range e.dist {
		if p > 0 {
			e.cands = append(e.cands, core.Candidate{Loc: loc, P: p})
		}
	}
	m.mu.Lock()
	m.cache[string(key)] = e
	m.mu.Unlock()
	return e
}

// appendKey appends the cache key of sets to dst: each member's known
// readers joined by ',', the members joined by ';'. p*(·|R) ignores readers
// the matrix does not know, so groups that differ only in unknown IDs share
// one cache entry, and a client posting ever-new reader IDs cannot grow the
// cache.
func (m *Model) appendKey(dst []byte, sets []rfid.Set) []byte {
	for j, set := range sets {
		if j > 0 {
			dst = append(dst, ';')
		}
		first := true
		for _, id := range set.IDs() {
			if !m.known[id] {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
			first = false
		}
	}
	return dst
}

// compute evaluates the formula. The members combine at the cell level,
// where the independence actually holds: given the shared cell c, the
// members' detections are independent, so the joint weight of c is the
// product of the members' weights under the model's formula. Summing per
// location and normalizing yields a sharper distribution than any single
// member's.
func (m *Model) compute(sets []rfid.Set) []float64 {
	numLoc := m.NumLocations()
	dist := make([]float64, numLoc)

	// Per member: the matrix row indices (rows are positional) of the
	// readers that fired and of those that stayed silent.
	type member struct{ fired, silent []int }
	members := make([]member, len(sets))
	for j, set := range sets {
		for i, reader := range m.f.Readers {
			if set.Contains(reader.ID) {
				members[j].fired = append(members[j].fired, i)
			} else {
				members[j].silent = append(members[j].silent, i)
			}
		}
	}

	full := m.opts.Formula == FullLikelihood
	total := 0.0
	for loc := 0; loc < numLoc; loc++ {
		var sum float64
	cells:
		for _, c := range m.f.Cells.CellsOfLocation(loc) {
			w := 1.0
			for _, mem := range members {
				for _, ri := range mem.fired {
					w *= m.f.Rates[ri][c]
					if w == 0 {
						continue cells
					}
				}
				if !full {
					continue
				}
				for _, ri := range mem.silent {
					w *= 1 - m.f.Rates[ri][c]
					if w == 0 {
						continue cells
					}
				}
			}
			sum += w
		}
		dist[loc] = sum
		total += sum
	}
	if total <= 0 {
		// No cell explains the reader sets (for a group: the members' sets
		// are mutually incompatible), so there is no a-priori knowledge:
		// uniform over all locations (§6.2).
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

// LSequence converts reading sequences into the l-sequence Γ = (Λ, ρ): for
// each timestamp τ, the candidate locations with non-zero probability under
// p*(·|R_τ). One sequence is a single tag's. Several are the tags of a group
// moving together, fused through Dist into one joint l-sequence; they must
// cover the same window. Every step's candidates share one backing array.
func (m *Model) LSequence(seqs ...rfid.Sequence) (*core.LSequence, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("prior: empty group")
	}
	duration := len(seqs[0])
	for j, seq := range seqs {
		if err := seq.Validate(); err != nil {
			if len(seqs) > 1 {
				err = fmt.Errorf("prior: group member %d: %w", j, err)
			}
			return nil, err
		}
		if len(seq) != duration {
			return nil, fmt.Errorf("prior: group member %d covers %d timestamps, member 0 covers %d",
				j, len(seq), duration)
		}
	}
	var one [1]rfid.Set // keeps a single tag's sets off the heap
	sets := one[:]
	if len(seqs) > 1 {
		sets = make([]rfid.Set, len(seqs))
	}
	ls := &core.LSequence{Steps: make([]core.Step, duration)}
	n := 0
	for t := range ls.Steps {
		for j, seq := range seqs {
			sets[j] = seq[t].Readers
		}
		c := m.lookup(sets).cands
		if len(c) == 0 {
			return nil, fmt.Errorf("prior: no candidate location at timestamp %d", t)
		}
		ls.Steps[t].Candidates = c // the cache's own; copied out below
		n += len(c)
	}
	cands := make([]core.Candidate, 0, n)
	for t := range ls.Steps {
		c := ls.Steps[t].Candidates
		cands = append(cands, c...)
		ls.Steps[t].Candidates = cands[len(cands)-len(c) : len(cands) : len(cands)]
	}
	return ls, nil
}

// CacheSize returns the number of distinct groups of known-reader sets seen
// so far (a single set is a group of one).
func (m *Model) CacheSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}
