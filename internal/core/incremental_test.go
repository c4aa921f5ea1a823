package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// graphsBitIdentical asserts two ct-graphs are structurally equal with
// bit-identical probabilities: same levels, same nodes (identity fields and
// source probabilities), and the same out-edges in the same order with the
// same conditioned weights. This is much stronger than comparing marginals.
func graphsBitIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.Duration() != got.Duration() {
		t.Fatalf("duration: want %d, got %d", want.Duration(), got.Duration())
	}
	for tt := 0; tt < want.Duration(); tt++ {
		wl, gl := want.Level(tt), got.Level(tt)
		if wl.Width() != gl.Width() {
			t.Fatalf("t=%d: want %d nodes, got %d", tt, wl.Width(), gl.Width())
		}
		for i := 0; i < wl.Width(); i++ {
			ws, wtl := want.identity(tt, i)
			gs, gtl := got.identity(tt, i)
			if wl.Loc(i) != gl.Loc(i) || ws != gs {
				t.Fatalf("t=%d node %d: want (%d,%d,%d), got (%d,%d,%d)",
					tt, i, tt, wl.Loc(i), ws, tt, gl.Loc(i), gs)
			}
			if len(wtl) != len(gtl) {
				t.Fatalf("t=%d node %d: TL length differs", tt, i)
			}
			for k := range wtl {
				if wtl[k] != gtl[k] {
					t.Fatalf("t=%d node %d: TL entry %d differs", tt, i, k)
				}
			}
			if wp, gp := wl.SourceProb(i), gl.SourceProb(i); math.Float64bits(wp) != math.Float64bits(gp) {
				t.Fatalf("t=%d node %d: prob want %x, got %x", tt, i, math.Float64bits(wp), math.Float64bits(gp))
			}
			wo, gout := wl.Out(i), gl.Out(i)
			if wo.Len() != gout.Len() {
				t.Fatalf("t=%d node %d: want %d out-edges, got %d", tt, i, wo.Len(), gout.Len())
			}
			for k := 0; k < wo.Len(); k++ {
				wto, wp := wo.At(k)
				gto, gp := gout.At(k)
				if wto != gto {
					t.Fatalf("t=%d node %d edge %d: want target %d, got %d", tt, i, k, wto, gto)
				}
				if math.Float64bits(wp) != math.Float64bits(gp) {
					t.Fatalf("t=%d node %d edge %d: P want %x, got %x", tt, i, k,
						math.Float64bits(wp), math.Float64bits(gp))
				}
			}
		}
	}
}

// liveHeap returns the heap in use after a collection. The second collection
// empties the kernel pools.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func prefixLS(ls *LSequence, n int) *LSequence {
	return &LSequence{Steps: ls.Steps[:n]}
}

// explainsAgree compares the deterministic fields of two explain reports:
// the counters, the per-timestamp steps and the normalizer's bits. Wall
// times are left to the caller.
func explainsAgree(got, want *BuildExplain) error {
	if got.PrunedDU != want.PrunedDU || got.PrunedLT != want.PrunedLT || got.PrunedTT != want.PrunedTT ||
		got.TargetsCondemned != want.TargetsCondemned ||
		got.BackwardRemoved != want.BackwardRemoved ||
		got.GhostsRemoved != want.GhostsRemoved {
		return fmt.Errorf("explain counters diverge: got %+v want %+v", got, want)
	}
	if math.Float64bits(got.Normalizer) != math.Float64bits(want.Normalizer) {
		return fmt.Errorf("normalizer want %x, got %x", math.Float64bits(want.Normalizer), math.Float64bits(got.Normalizer))
	}
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("explain has %d steps, want %d", len(got.Steps), len(want.Steps))
	}
	for tt := range want.Steps {
		if got.Steps[tt] != want.Steps[tt] {
			return fmt.Errorf("explain step %d: got %+v want %+v", tt, got.Steps[tt], want.Steps[tt])
		}
	}
	return nil
}

// TestPropertyIncrementalSmoothEqualsBuild is the tentpole equivalence
// property: feeding random valid reading sequences through a BuildState and
// smoothing at random prefixes yields, at every prefix, a graph bit-identical
// to a full offline Build over the same prefix — under both end-latency
// modes, and with the modes alternating between smooths of one state.
func TestPropertyIncrementalSmoothEqualsBuild(t *testing.T) {
	rng := stats.NewRNG(20140325)
	const trials = 400
	smoothed := 0
	for trial := 0; trial < trials; trial++ {
		ls, ic := randomScenario(rng)
		st := newBuildState(ic, false)
		mode := constraints.LenientEnd
		if rng.Bernoulli(0.3) {
			mode = constraints.StrictEnd
		}
		for k := 0; k < ls.Duration(); k++ {
			if err := st.Observe(ls.Steps[k].Candidates); err != nil {
				// The forward phase dead-ended: the offline build over the
				// same prefix must dead-end too, and the state must refuse
				// further readings.
				if !errors.Is(err, ErrNoValidTrajectory) {
					t.Fatalf("trial %d: unexpected observe error: %v", trial, err)
				}
				if _, bErr := Build(prefixLS(ls, k+1), ic, &Options{EndLatency: mode}); !errors.Is(bErr, ErrNoValidTrajectory) {
					t.Fatalf("trial %d: state dead-ended at %d but Build said %v", trial, k, bErr)
				}
				if err := st.Observe(ls.Steps[k].Candidates); !errors.Is(err, ErrNoValidTrajectory) {
					t.Fatalf("trial %d: dead state accepted a reading: %v", trial, err)
				}
				break
			}
			if k != ls.Duration()-1 && !rng.Bernoulli(0.5) {
				continue // smooth at a random subset of prefixes, always the last
			}
			if rng.Bernoulli(0.15) {
				// Occasionally flip the end-latency mode mid-session.
				if mode == constraints.LenientEnd {
					mode = constraints.StrictEnd
				} else {
					mode = constraints.LenientEnd
				}
			}
			var exInc, exFull BuildExplain
			got, gErr := st.Smooth(&Options{EndLatency: mode, Explain: &exInc})
			want, wErr := Build(prefixLS(ls, k+1), ic, &Options{EndLatency: mode, Explain: &exFull})
			if (gErr == nil) != (wErr == nil) {
				t.Fatalf("trial %d prefix %d: incremental err %v, full err %v", trial, k+1, gErr, wErr)
			}
			if wErr != nil {
				if !errors.Is(gErr, ErrNoValidTrajectory) {
					t.Fatalf("trial %d prefix %d: want ErrNoValidTrajectory, got %v", trial, k+1, gErr)
				}
				continue
			}
			smoothed++
			graphsBitIdentical(t, want, got)
			if err := got.CheckInvariants(1e-9); err != nil {
				t.Fatalf("trial %d prefix %d: invariants: %v", trial, k+1, err)
			}
			numLocs := len(ls.Steps[0].Candidates)
			for _, s := range ls.Steps {
				for _, c := range s.Candidates {
					if c.Loc >= numLocs {
						numLocs = c.Loc + 1
					}
				}
			}
			wantM, err := want.Marginals(numLocs)
			if err != nil {
				t.Fatal(err)
			}
			gotM, err := got.Marginals(numLocs)
			if err != nil {
				t.Fatal(err)
			}
			for tt := range wantM {
				for l := range wantM[tt] {
					if math.Float64bits(wantM[tt][l]) != math.Float64bits(gotM[tt][l]) {
						t.Fatalf("trial %d prefix %d: marginal (t=%d, loc=%d) want %x, got %x",
							trial, k+1, tt, l, math.Float64bits(wantM[tt][l]), math.Float64bits(gotM[tt][l]))
					}
				}
			}
			if err := explainsAgree(&exInc, &exFull); err != nil {
				t.Fatalf("trial %d prefix %d: %v", trial, k+1, err)
			}
		}
	}
	if smoothed == 0 {
		t.Fatal("no scenario produced a smoothable prefix")
	}
}

// FuzzSmoothEqualsBuild: on any scenario, a BuildState that smooths at the
// prefixes a schedule picks, flipping the end-latency mode and
// Options.Quotient at some of them, fails exactly when Build with the same
// options over the same prefix fails and otherwise encodes byte for byte
// like it; with Quotient that Build is the serving one, which drops the
// dominated TL entries this raw state keeps. The schedule is the bytes after
// the scenario, one per reading: bit 0 skips the smooth (the last reading
// always smooths), bit 1 flips the mode first and bit 2 flips Quotient.
func FuzzSmoothEqualsBuild(f *testing.F) {
	rng := stats.NewRNG(20140331)
	for i := 0; i < 32; i++ {
		ls, ic := randomScenario(rng)
		schedule := make([]byte, ls.Duration())
		for k := range schedule {
			schedule[k] = byte(rng.Intn(8))
		}
		f.Add(scenarioBytes(ls, ic, schedule))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ls, ic, mode, schedule := fuzzScenario(data)
		st := newBuildState(ic, false)
		quotient := false
		for k, step := range ls.Steps {
			if err := st.Observe(step.Candidates); err != nil {
				if _, bErr := Build(prefixLS(ls, k+1), ic, nil); !errors.Is(err, ErrNoValidTrajectory) || !errors.Is(bErr, ErrNoValidTrajectory) {
					t.Fatalf("observe %d: %v, Build over the prefix: %v", k, err, bErr)
				}
				return
			}
			var b byte
			if k < len(schedule) {
				b = schedule[k]
			}
			if b&1 != 0 && k != ls.Duration()-1 {
				continue
			}
			if b&2 != 0 {
				if mode == constraints.StrictEnd {
					mode = constraints.LenientEnd
				} else {
					mode = constraints.StrictEnd
				}
			}
			if b&4 != 0 {
				quotient = !quotient
			}
			opts := &Options{EndLatency: mode, Quotient: quotient}
			got, gotErr := st.Smooth(opts)
			if gotErr == nil && quotient {
				got = got.Quotient()
			}
			want, err := Build(prefixLS(ls, k+1), ic, opts)
			if (err == nil) != (gotErr == nil) {
				t.Fatalf("prefix %d: smooth err %v, build err %v", k+1, gotErr, err)
			}
			if err == nil && !bytes.Equal(encoded(t, got), encoded(t, want)) {
				t.Fatalf("prefix %d: smooth encodes unlike Build", k+1)
			}
		}
	})
}

// TestIncrementalSmoothIndependence asserts each Smooth returns a graph that
// later observations and smooths do not mutate.
func TestIncrementalSmoothIndependence(t *testing.T) {
	ls, ic := benchScenario()
	st := NewBuildState(ic)
	opts := &Options{EndLatency: constraints.LenientEnd}
	for k := 0; k < 50; k++ {
		if err := st.Observe(ls.Steps[k].Candidates); err != nil {
			t.Fatal(err)
		}
	}
	first, err := st.Smooth(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := first.Marginals(8)
	if err != nil {
		t.Fatal(err)
	}
	want := append([][]float64(nil), wantM...)
	for k := 50; k < 80; k++ {
		if err := st.Observe(ls.Steps[k].Candidates); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Smooth(opts); err != nil {
			t.Fatal(err)
		}
	}
	gotM, err := first.Marginals(8)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range want {
		for l := range want[tt] {
			if math.Float64bits(want[tt][l]) != math.Float64bits(gotM[tt][l]) {
				t.Fatalf("the first smooth's graph mutated at (t=%d, loc=%d)", tt, l)
			}
		}
	}
	if err := first.CheckInvariants(1e-9); err != nil {
		t.Fatalf("the first smooth's invariants broke after later smooths: %v", err)
	}
}

// TestBuildStateValidation covers Observe's candidate validation, including
// the duplicate-location rejection, and the empty-state Smooth.
func TestBuildStateValidation(t *testing.T) {
	st := NewBuildState(nil)
	if err := st.Observe(nil); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	if err := st.Observe([]Candidate{{Loc: -1, P: 1}}); err == nil {
		t.Fatal("negative location accepted")
	}
	if err := st.Observe([]Candidate{{Loc: 0, P: 0}}); err == nil {
		t.Fatal("zero probability accepted")
	}
	if err := st.Observe([]Candidate{{Loc: 0, P: 0.5}, {Loc: 0, P: 0.5}}); err == nil {
		t.Fatal("duplicate locations accepted")
	}
	if _, err := st.Smooth(nil); err == nil {
		t.Fatal("smooth of an empty state succeeded")
	}
	if err := st.Observe([]Candidate{{Loc: 0, P: 1}}); err != nil {
		t.Fatal(err)
	}
	g, err := st.Smooth(&Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	if g.Duration() != 1 {
		t.Fatalf("duration: got %d, want 1", g.Duration())
	}
}

// TestBuildStateInternerRebuild exercises the TL interner cap on a long
// stream: the smoothed graph is bit-identical to a full Build.
func TestBuildStateInternerRebuild(t *testing.T) {
	ls, ic := benchScenario()
	st := newBuildState(ic, false)
	st.internCap = 8
	for k := 0; k < ls.Duration(); k++ {
		if err := st.Observe(ls.Steps[k].Candidates); err != nil {
			t.Fatal(err)
		}
	}
	if st.InternerRebuilds() == 0 {
		t.Fatal("interner never rebuilt despite a tiny cap")
	}
	got, err := st.Smooth(&Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(ls, ic, &Options{EndLatency: constraints.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	graphsBitIdentical(t, want, got)
}

// TestBuildStateSoakSession streams one stream session's worth of readings —
// soakSession, the query head's per-session cap outside the race detector —
// through a BuildState, smoothing every quarter of the session as a live
// client would. At every reading the TL interner must stay within its cap
// plus one step (TL entries carry absolute times, so it must be rebuilt), and
// the filtered forward mass must be positive normal floats summing to 1.
// Every smooth must keep the graph invariants and a finite, positive
// normalizer. At the first and the last smooth the graph must encode
// byte-identically to a full Build over the same prefix. Memory is gated per
// raw node: the heap the state holds after the last reading, and the bytes a
// Smooth allocates. The same readings then go through a quotient-only
// session, the kind the query head runs, whose figures are logged.
func TestBuildStateSoakSession(t *testing.T) {
	const (
		// The heap the state holds after the last reading (its working
		// graph and pass columns), and the bytes one Smooth allocates, per
		// raw node. They measure about 80 and 57 B, and 90 and 59 B over
		// the race detector's shorter session.
		maxHeldPerNode   = 100
		maxSmoothPerNode = 80
	)
	steps, ic := soakScenario(t, soakSession)
	ls := &LSequence{Steps: make([]Step, soakSession)}
	for k, cands := range steps {
		ls.Steps[k].Candidates = cands
	}
	st := newBuildState(ic, false)
	held, smoothed, rawNodes := soak(t, st, steps, func(n int, g *Graph) {
		if n != soakSession/4 && n != soakSession {
			return
		}
		want, err := Build(prefixLS(ls, n), ic, &Options{EndLatency: constraints.LenientEnd})
		if err != nil {
			t.Fatal(err)
		}
		// The encodings run to ~170 MB at the cap: compare digests.
		got, ref := sha256.New(), sha256.New()
		if err := g.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := want.Encode(ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Sum(nil), ref.Sum(nil)) {
			t.Fatalf("smooth at %d: encoding differs from a full Build", n)
		}
	})
	t.Logf("the state holds %.1f B per raw node over %d raw nodes; a full smooth allocates %.1f B per raw node",
		held, rawNodes, smoothed)
	if held > maxHeldPerNode {
		t.Errorf("the state holds %.1f B per raw node, want at most %d", held, maxHeldPerNode)
	}
	if smoothed > maxSmoothPerNode {
		t.Errorf("a full smooth allocates %.1f B per raw node, want at most %d", smoothed, maxSmoothPerNode)
	}
	if st.InternerRebuilds() == 0 {
		t.Fatalf("the interner never rebuilt over %d readings", soakSession)
	}
	t.Logf("%d readings, 5 smooths, %d interner rebuilds", soakSession, st.InternerRebuilds())
	st.Release()

	q := NewBuildState(ic)
	defer q.Release()
	held, smoothed, rawNodes = soak(t, q, steps, func(int, *Graph) {})
	t.Logf("a quotient-only session holds %.1f B per raw node over %d raw nodes; a full smooth allocates %.1f B per raw node",
		held, rawNodes, smoothed)
}

// soak runs TestBuildStateSoakSession's session over steps on st, calling
// check with every quarter's smooth. It returns the heap st holds after the
// last reading and the bytes a last, StrictEnd smooth allocates, each per
// raw node, and the number of raw nodes.
func soak(t *testing.T, st *BuildState, steps [][]Candidate, check func(n int, g *Graph)) (held, smoothed float64, rawNodes int) {
	t.Helper()
	smoothEvery := len(steps) / 4
	heapBefore := liveHeap()
	for k, cands := range steps {
		// One step adds at most one chain of links per (node, candidate)
		// pair, and a TL holds at most one entry per location.
		oneStep := st.FrontierSize() * len(cands) * 3
		if err := st.Observe(cands); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if got := st.b.tl.size(); got > st.internCap+oneStep {
			t.Fatalf("step %d: interner holds %d links, cap %d + one step %d", k, got, st.internCap, oneStep)
		}
		sum := 0.0
		for _, a := range st.alphas {
			if !(a >= 0x1p-1022) || math.IsInf(a, 0) {
				t.Fatalf("step %d: forward mass %v is not a positive normal float", k, a)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("step %d: forward mass sums to %v", k, sum)
		}
		n := k + 1
		if n == len(steps) {
			rawNodes = len(st.b.g.loc)
			held = float64(liveHeap()-heapBefore) / float64(rawNodes)
		}
		if n%smoothEvery != 0 {
			continue
		}
		var ex BuildExplain
		g, err := st.Smooth(&Options{EndLatency: constraints.LenientEnd, Explain: &ex})
		if err != nil {
			t.Fatalf("smooth at %d: %v", n, err)
		}
		if err := g.CheckInvariants(1e-9); err != nil {
			t.Fatalf("smooth at %d: invariants: %v", n, err)
		}
		if !(ex.Normalizer > 0) || math.IsInf(ex.Normalizer, 0) {
			t.Fatalf("smooth at %d: normalizer %v", n, ex.Normalizer)
		}
		check(n, g)
	}
	// The last Smooth flips the end mode. It starts on empty pools, so
	// blocks a Build left there do not hide what it takes.
	liveHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	var ex BuildExplain
	if _, err := st.Smooth(&Options{EndLatency: constraints.StrictEnd, Explain: &ex}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if len(ex.Steps) != len(steps) {
		t.Fatalf("the full smooth reported %d levels, want %d", len(ex.Steps), len(steps))
	}
	return held, float64(ms.TotalAlloc-allocBefore) / float64(rawNodes), rawNodes
}
