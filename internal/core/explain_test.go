package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestExplainConsistency checks the explain report's bookkeeping against the
// graph it describes: pruned pairs account exactly for the considered-minus-
// accepted gap, per constraint family, and the final node counts match the
// compacted graph.
func TestExplainConsistency(t *testing.T) {
	ls, ic := benchScenario()
	ex := &BuildExplain{}
	g, err := Build(ls, ic, &Options{Explain: ex})
	if err != nil {
		t.Fatal(err)
	}

	if len(ex.Steps) != ls.Duration() {
		t.Fatalf("Steps has %d entries, want %d", len(ex.Steps), ls.Duration())
	}
	var gap int64
	for t2, st := range ex.Steps {
		if st.Considered < st.Accepted {
			t.Fatalf("step %d: accepted %d > considered %d", t2, st.Accepted, st.Considered)
		}
		if t2 > 0 {
			wantConsidered := len(g.NodesAt(t2-1))*st.Candidates + 0
			// NodesAt reflects the compacted graph; Considered counts pairs
			// over the pre-backward level, so only a lower bound holds.
			if st.Considered < wantConsidered {
				t.Fatalf("step %d: considered %d < final-node lower bound %d", t2, st.Considered, wantConsidered)
			}
		}
		if st.NodesFinal != len(g.NodesAt(t2)) {
			t.Fatalf("step %d: NodesFinal %d, graph has %d", t2, st.NodesFinal, len(g.NodesAt(t2)))
		}
		if st.NodesFinal > st.NodesBuilt {
			t.Fatalf("step %d: NodesFinal %d > NodesBuilt %d", t2, st.NodesFinal, st.NodesBuilt)
		}
		gap += int64(st.Considered - st.Accepted)
	}
	if got := ex.PrunedTotal(); got != gap {
		t.Fatalf("prune counters sum to %d, considered-accepted gap is %d", got, gap)
	}
	if ex.PrunedDU == 0 || ex.PrunedLT == 0 || ex.PrunedTT == 0 {
		t.Fatalf("scenario has DU+LT+TT constraints but some counter is zero: %+v", ex)
	}
	total := 0
	for _, st := range ex.Steps {
		total += st.NodesFinal
	}
	if stats := g.Stats(); total != stats.Nodes {
		t.Fatalf("Σ NodesFinal = %d, Stats().Nodes = %d", total, stats.Nodes)
	}
	if ex.Normalizer <= 0 || ex.Normalizer > 1+1e-9 {
		t.Fatalf("Normalizer = %v, want in (0, 1]", ex.Normalizer)
	}
	if ex.ForwardNanos < 0 || ex.BackwardNanos < 0 || ex.ReviseNanos < 0 || ex.CompileNanos < 0 {
		t.Fatalf("negative phase timing: %+v", ex)
	}
}

// TestExplainStability runs the same clean twice and requires every counter
// (everything except wall times) to match: the report must be a function of
// the input, not of scheduling.
func TestExplainStability(t *testing.T) {
	ls, ic := benchScenario()
	run := func() *BuildExplain {
		ex := &BuildExplain{}
		if _, err := Build(ls, ic, &Options{Explain: ex}); err != nil {
			t.Fatal(err)
		}
		ex.CompileNanos, ex.ForwardNanos, ex.BackwardNanos, ex.ReviseNanos = 0, 0, 0, 0
		return ex
	}
	a, b := run(), run()
	if a.PrunedDU != b.PrunedDU || a.PrunedLT != b.PrunedLT || a.PrunedTT != b.PrunedTT {
		t.Fatalf("prune counters differ across identical cleans:\n%+v\n%+v", a, b)
	}
	if a.TargetsCondemned != b.TargetsCondemned || a.BackwardRemoved != b.BackwardRemoved ||
		a.GhostsRemoved != b.GhostsRemoved || a.Normalizer != b.Normalizer {
		t.Fatalf("removal counters differ across identical cleans:\n%+v\n%+v", a, b)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// TestExplainReuse checks that a report handed to a second build is fully
// reset rather than accumulated into.
func TestExplainReuse(t *testing.T) {
	ls, ic := benchScenario()
	ex := &BuildExplain{}
	opts := &Options{Explain: ex}
	if _, err := Build(ls, ic, opts); err != nil {
		t.Fatal(err)
	}
	first := ex.PrunedTotal()
	if _, err := Build(ls, ic, opts); err != nil {
		t.Fatal(err)
	}
	if ex.PrunedTotal() != first {
		t.Fatalf("reused report accumulated: %d after first build, %d after second", first, ex.PrunedTotal())
	}
}

// TestBuildCtxRecordsSpans checks the phase spans land in an attached trace.
func TestBuildCtxRecordsSpans(t *testing.T) {
	ls, ic := benchScenario()
	tr := obs.NewTrace("build-test")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := BuildCtx(ctx, ls, ic, nil); err != nil {
		t.Fatal(err)
	}
	exp := tr.Export()
	if len(exp.Spans) != 1 || exp.Spans[0].Name != "core.build" {
		t.Fatalf("want one core.build root span, got %+v", exp.Spans)
	}
	names := map[string]bool{}
	for _, sp := range exp.Spans[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"core.compile", "core.forward", "core.backward", "core.revise"} {
		if !names[want] {
			t.Fatalf("missing %s span under core.build; have %v", want, names)
		}
	}
	if exp.Spans[0].Attrs["timestamps"] != int64(ls.Duration()) {
		t.Fatalf("core.build timestamps attr = %v", exp.Spans[0].Attrs["timestamps"])
	}
}

// TestBuildAllocParity pins the zero-overhead contract: the permanently
// instrumented BuildCtx with no trace and no explain report allocates exactly
// as much as plain Build.
func TestBuildAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	ls, ic := benchScenario()
	base := testing.AllocsPerRun(5, func() {
		if _, err := Build(ls, ic, nil); err != nil {
			t.Fatal(err)
		}
	})
	ctx := context.Background()
	instrumented := testing.AllocsPerRun(5, func() {
		if _, err := BuildCtx(ctx, ls, ic, nil); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented > base {
		t.Fatalf("BuildCtx with no recorder allocates more than Build: %v > %v allocs/op", instrumented, base)
	}
}
