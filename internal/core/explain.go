package core

// pruneReason classifies why successorKey rejected a (node, candidate) pair:
// which integrity-constraint family ruled the successor out. pruneNone marks
// an accepted pair; keeping it at index 0 lets Build count rejections with an
// unconditional prunes[reason]++ on every pair.
type pruneReason uint8

const (
	pruneNone pruneReason = iota
	pruneDU               // direct-unreachability (Condition 2)
	pruneLT               // latency: left before the minimum stay (Condition 4)
	pruneTT               // traveling time still binding (Condition 5)
	numPruneReasons
)

// ExplainStep reports, for one timestamp of the l-sequence, how the candidate
// interpretations fared through the build.
type ExplainStep struct {
	// Candidates is the number of candidate locations the l-sequence offers
	// at this timestamp.
	Candidates int `json:"candidates"`
	// Considered is the number of (node, candidate) successor pairs the
	// forward phase examined entering this timestamp (zero at τ=0, where
	// nodes come straight from the candidates).
	Considered int `json:"considered"`
	// Accepted is how many of those pairs satisfied Definition 3 and became
	// edges; Considered − Accepted pairs were pruned by some constraint.
	Accepted int `json:"accepted"`
	// NodesBuilt is the number of distinct nodes the forward phase
	// materialized at this timestamp (accepted pairs deduplicate onto them).
	NodesBuilt int `json:"nodesBuilt"`
	// NodesFinal is the number of nodes still standing after the backward
	// phase, orphan scrubbing, and compaction.
	NodesFinal int `json:"nodesFinal"`
}

// BuildExplain is a cleaning explain report: where Algorithm 1 spent its time
// and where candidate interpretations were discarded. Attach one to
// Options.Explain and Build fills it in. The counters satisfy
//
//	Σ_t (Steps[t].Considered − Steps[t].Accepted) = PrunedDU + PrunedLT + PrunedTT
//
// so per-constraint prune counts sum consistently with the ct-graph's
// candidate counts.
type BuildExplain struct {
	// Wall time per phase, in nanoseconds.
	CompileNanos  int64 `json:"compileNanos"`
	ForwardNanos  int64 `json:"forwardNanos"`
	BackwardNanos int64 `json:"backwardNanos"`
	ReviseNanos   int64 `json:"reviseNanos"`

	// Steps has one entry per timestamp of the window.
	Steps []ExplainStep `json:"steps"`

	// Successor pairs pruned in the forward phase, by constraint family.
	PrunedDU int64 `json:"prunedDU"`
	PrunedLT int64 `json:"prunedLT"`
	PrunedTT int64 `json:"prunedTT"`

	// TargetsCondemned counts final-timestamp nodes zeroed by strict
	// end-of-window latency semantics (Definition 2).
	TargetsCondemned int `json:"targetsCondemned"`
	// BackwardRemoved counts nodes removed by the backward phase because no
	// valid trajectory passes through them (survival hit zero).
	BackwardRemoved int `json:"backwardRemoved"`
	// GhostsRemoved counts unreachable nodes swept by the orphan scrub.
	GhostsRemoved int `json:"ghostsRemoved"`

	// Normalizer is the total valid a-priori source mass the conditioning
	// divided by (the probability of the conditioning event, up to the
	// backward phase's underflow-guard rescaling).
	Normalizer float64 `json:"normalizer"`
}

// reset clears a report so Build can fill it from scratch.
func (ex *BuildExplain) reset(duration int) {
	*ex = BuildExplain{Steps: resize(ex.Steps, duration)}
	for i := range ex.Steps {
		ex.Steps[i] = ExplainStep{}
	}
}

// PrunedTotal returns the total number of successor pairs pruned by
// integrity constraints in the forward phase.
func (ex *BuildExplain) PrunedTotal() int64 {
	return ex.PrunedDU + ex.PrunedLT + ex.PrunedTT
}
