package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

func buildSimple(t *testing.T) *Graph {
	t.Helper()
	ls := FromDistributions([][]float64{
		{0.6, 0.4},
		{0.5, 0.5},
	})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathLocations returns the location sequence of a path given as one node
// index per level.
func (g *Graph) pathLocations(path []int) []int {
	locs := make([]int, len(path))
	for t, i := range path {
		locs[t] = g.Level(t).Loc(i)
	}
	return locs
}

// conditionedDistribution enumerates every valid trajectory with its
// conditioned probability, keyed by the comma-separated location sequence.
// It fails beyond limit paths.
func (g *Graph) conditionedDistribution(limit int) (map[string]float64, error) {
	out := make(map[string]float64)
	err := g.WalkPaths(limit, func(path []int, p float64) {
		out[TrajectoryKey(g.pathLocations(path))] += p
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestGraphAccessors(t *testing.T) {
	g := buildSimple(t)
	if g.Duration() != 2 {
		t.Errorf("Duration = %d", g.Duration())
	}
	if src, dst := g.Level(0).Width(), g.Level(g.Duration()-1).Width(); src != 2 || dst != 2 {
		t.Errorf("sources/targets = %d/%d", src, dst)
	}
	s := g.Stats()
	if s.Nodes != 4 || s.Edges != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Bytes <= 0 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
}

func TestPathProbability(t *testing.T) {
	g := buildSimple(t)
	src := g.Level(0)
	dst, pe := src.Out(0).At(0)
	p, err := g.PathProbability([]int{0, dst})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-src.SourceProb(0)*pe) > 1e-12 {
		t.Errorf("PathProbability = %v", p)
	}
	if _, err := g.PathProbability([]int{0}); err == nil {
		t.Errorf("short path accepted")
	}
	if _, err := g.PathProbability([]int{0, 2}); err == nil {
		t.Errorf("out-of-range node index accepted")
	}
	if _, err := g.PathProbability([]int{-1, 0}); err == nil {
		t.Errorf("negative node index accepted")
	}
	// Disconnected pair: DU forbids 0 -> 1, so the L0 source has no arc to
	// the L1 node of the next level.
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	g, err = Build(FromDistributions([][]float64{{0.6, 0.4}, {0.5, 0.5}}), ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	from, to := -1, -1
	for i := 0; i < g.Level(0).Width(); i++ {
		if g.Level(0).Loc(i) == 0 {
			from = i
		}
	}
	for i := 0; i < g.Level(1).Width(); i++ {
		if g.Level(1).Loc(i) == 1 {
			to = i
		}
	}
	if from < 0 || to < 0 {
		t.Fatalf("graph lacks the L0 source or the L1 successor")
	}
	if _, err := g.PathProbability([]int{from, to}); err == nil {
		t.Errorf("non-edge accepted")
	}
}

func TestWalkPathsLimit(t *testing.T) {
	g := buildSimple(t)
	if err := g.WalkPaths(2, func([]int, float64) {}); err == nil {
		t.Errorf("limit not enforced (4 paths, limit 2)")
	}
	count := 0
	if err := g.WalkPaths(10, func([]int, float64) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("walked %d paths, want 4", count)
	}
}

func TestForwardBackwardMass(t *testing.T) {
	ls := FromDistributions([][]float64{
		{0.5, 0.5},
		{0.25, 0.75},
		{1},
	})
	ic := constraints.NewSet()
	ic.AddDU(1, 0)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	alpha := g.Forward()
	beta := g.Backward()
	for tau := 0; tau < g.Duration(); tau++ {
		var mass float64
		lvl := g.Level(tau)
		a, b := lvl.Column(alpha), lvl.Column(beta)
		for i := 0; i < lvl.Width(); i++ {
			mass += a[i] * b[i]
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("mass at %d = %v", tau, mass)
		}
	}
}

func TestMarginalsSumToOne(t *testing.T) {
	ls, ic := runningExample(t)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Marginals(6)
	if err != nil {
		t.Fatal(err)
	}
	for tau, row := range m {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("marginals at %d sum to %v", tau, sum)
		}
	}
	// Running example: the object is at L1 then L3, L3 with certainty.
	if m[0][l1] != 1 || m[1][l3] != 1 || m[2][l3] != 1 {
		t.Errorf("marginals = %v", m)
	}
}

func TestNodeKeyDistinguishes(t *testing.T) {
	in := newTLInterner()
	key := func(loc, stay int, tl []TLEntry) nodeKey {
		return nodeKey{loc: int32(loc), stay: int32(stay), tl: in.intern(tl)}
	}
	a := key(2, 1, nil)
	b := key(2, StayUntracked, nil)
	if a == b {
		t.Errorf("keys should differ on stay counter")
	}
	c := key(2, 1, []TLEntry{{Time: 0, Loc: 5}})
	if a == c {
		t.Errorf("keys should differ on TL")
	}
	d := key(2, 1, []TLEntry{{Time: 0, Loc: 5}})
	if c != d {
		t.Errorf("identical nodes should share a key")
	}
	// Same locations at different leave times are different histories.
	e := key(2, 1, []TLEntry{{Time: 1, Loc: 5}})
	if c == e {
		t.Errorf("keys should differ on TL leave time")
	}
}

func TestTLInternerCanonicalizes(t *testing.T) {
	in := newTLInterner()
	tl := []TLEntry{{Time: 3, Loc: 1}, {Time: 5, Loc: 4}}
	id := in.intern(tl)
	// Mutating the caller's slice must not affect the canonical copy.
	tl[0] = TLEntry{Time: 9, Loc: 9}
	again := in.intern([]TLEntry{{Time: 3, Loc: 1}, {Time: 5, Loc: 4}})
	if id != again {
		t.Errorf("equal TLs interned to %d and %d", id, again)
	}
	seq := in.seq(id)
	if len(seq) != 2 || seq[0] != (TLEntry{Time: 3, Loc: 1}) || seq[1] != (TLEntry{Time: 5, Loc: 4}) {
		t.Errorf("canonical seq = %v", seq)
	}
	if in.intern(nil) != 0 {
		t.Errorf("empty TL should intern to ID 0")
	}
	if in.size() == 0 {
		t.Errorf("interner reports zero size after interning")
	}
	// A proper prefix is a distinct ID sharing the chain.
	pre := in.intern([]TLEntry{{Time: 3, Loc: 1}})
	if pre == id || len(in.seq(pre)) != 1 {
		t.Errorf("prefix interning broken: pre=%d id=%d seq=%v", pre, id, in.seq(pre))
	}
}

func TestNodeIndexMatchesPosition(t *testing.T) {
	ls, ic := runningExample(t)
	g, err := Build(ls, ic, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Levels partition the node numbers in order, and every arc names its
	// target by its dense index in the next level.
	nodes := 0
	for tau := 0; tau < g.Duration(); tau++ {
		if int(g.levelOff[tau]) != nodes {
			t.Errorf("level %d starts at node %d, want %d", tau, g.levelOff[tau], nodes)
		}
		lvl := g.Level(tau)
		nodes += lvl.Width()
		for i := 0; i < lvl.Width(); i++ {
			for k := 0; k < lvl.Out(i).Len(); k++ {
				if to, _ := lvl.Out(i).At(k); to < 0 || to >= g.Level(tau+1).Width() {
					t.Errorf("arc %d of node %d at timestamp %d targets index %d", k, i, tau, to)
				}
			}
		}
	}
	if nodes != g.Stats().Nodes {
		t.Errorf("levels hold %d nodes, graph %d", nodes, g.Stats().Nodes)
	}
}

func TestSampleSingleton(t *testing.T) {
	ls := FromDistributions([][]float64{{0, 1}})
	g, err := Build(ls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	locs := g.Sample(rng)
	if len(locs) != 1 || locs[0] != 1 {
		t.Errorf("Sample = %v", locs)
	}
}

func TestMostProbableSimple(t *testing.T) {
	g := buildSimple(t)
	locs, p := g.MostProbable()
	// Highest-prob path: source 0 (0.6) then either (0.5 each) -> 0.3.
	if math.Abs(p-0.3) > 1e-12 {
		t.Errorf("MostProbable p = %v", p)
	}
	if locs[0] != 0 {
		t.Errorf("MostProbable start = %d", locs[0])
	}
}

func TestTrajectoryKeyAndTrajectory(t *testing.T) {
	if TrajectoryKey([]int{1, 2, 3}) != "1,2,3" {
		t.Errorf("TrajectoryKey wrong")
	}
	if TrajectoryKey(nil) != "" {
		t.Errorf("empty TrajectoryKey wrong")
	}
	g := buildSimple(t)
	to, _ := g.Level(0).Out(0).At(0)
	locs := g.pathLocations([]int{0, to})
	if len(locs) != 2 || locs[0] != g.Level(0).Loc(0) || locs[1] != g.Level(1).Loc(to) {
		t.Errorf("pathLocations = %v", locs)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	g := buildSimple(t)
	// Corrupt an edge probability.
	g.p[0] = 0.9
	if err := g.CheckInvariants(1e-9); err == nil {
		t.Errorf("corrupted graph passed invariants")
	}
	if err := (&Graph{}).CheckInvariants(1e-9); err == nil {
		t.Errorf("empty graph passed invariants")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	if o.endLatency() != constraints.StrictEnd {
		t.Errorf("nil end latency = %v", o.endLatency())
	}
	o = &Options{EndLatency: constraints.LenientEnd}
	if o.endLatency() != constraints.LenientEnd {
		t.Errorf("options not honored")
	}
}

// identity returns δ and TL of node i of level t.
func (g *Graph) identity(t, i int) (stay int, tl []TLEntry) {
	if len(g.tlOff) == 0 {
		return StayUntracked, nil
	}
	n := int(g.levelOff[t]) + i
	return int(g.stay[n]), g.tl[g.tlOff[n]:g.tlOff[n+1]]
}

// inDegrees returns the number of arcs into each node of level t+1 from
// level t.
func (g *Graph) inDegrees(t int) []int {
	in := make([]int, g.Level(t+1).Width())
	lvl := g.Level(t)
	for i := 0; i < lvl.Width(); i++ {
		for k := 0; k < lvl.Out(i).Len(); k++ {
			to, _ := lvl.Out(i).At(k)
			in[to]++
		}
	}
	return in
}

// TestStatsBytesMatchRetainedHeap: Stats().Bytes is within 10% of the heap
// that N frozen graphs retain, measured after a collection, for Algorithm 1's
// graphs and for quotients.
func TestStatsBytesMatchRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 400 graphs")
	}
	const n = 200
	ls, ic := benchScenarioN(60)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second collection empties the kernel pools
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, quotient := range []bool{false, true} {
		opts := &Options{Quotient: quotient}
		if _, err := Build(ls, ic, opts); err != nil {
			t.Fatal(err)
		}
		graphs := make([]*Graph, n)
		before := heap()
		var charged int64
		for i := range graphs {
			g, err := Build(ls, ic, opts)
			if err != nil {
				t.Fatal(err)
			}
			graphs[i] = g
			charged += int64(g.Stats().Bytes)
		}
		retained := heap() - before
		ratio := float64(charged) / float64(retained)
		t.Logf("quotient=%v: %d graphs of %d nodes: Stats().Bytes %d, retained %d (%.3f)",
			quotient, n, graphs[0].Stats().Nodes, charged, retained, ratio)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("quotient=%v: Stats().Bytes sums to %d for %d retained (ratio %.3f), want within 10%%", quotient, charged, retained, ratio)
		}
		runtime.KeepAlive(graphs)
	}
	runtime.KeepAlive(ls)
	runtime.KeepAlive(ic)
}

// hasPointer reports whether a value of typ holds a pointer the collector
// scans.
func hasPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointer(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestGraphHoldsNoPointers: no column of a Graph has an element type that
// contains a pointer, so a stored graph is never scanned by the collector.
func TestGraphHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Graph{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("field %s is a %s, not a column", f.Name, f.Type)
			continue
		}
		if hasPointer(f.Type.Elem()) {
			t.Errorf("column %s holds %s, which contains a pointer", f.Name, f.Type.Elem())
		}
	}
}

// TestKernelHoldsNoPointers: every slice a kernel holds — the working
// graph's columns, the interner's, the pass's, the dedup table's and the
// forward scratch — has an element type without pointers, so however big a
// build or stream session grows, the collector scans none of it. The walk
// follows struct fields and pointers to this package's structs (the
// interner), and stops at other pointers (the compiled constraints).
func TestKernelHoldsNoPointers(t *testing.T) {
	pkg := reflect.TypeOf(kernel{}).PkgPath()
	seen := 0
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + "." + f.Name
			switch ft := f.Type; {
			case ft.Kind() == reflect.Slice:
				seen++
				if hasPointer(ft.Elem()) {
					t.Errorf("%s holds %s, which contains a pointer", name, ft.Elem())
				}
			case ft.Kind() == reflect.Struct:
				walk(name, ft)
			case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct && ft.Elem().PkgPath() == pkg:
				walk(name, ft.Elem())
			}
		}
	}
	walk("kernel", reflect.TypeOf(kernel{}))
	if seen < 10 {
		t.Fatalf("the walk found %d slices in a kernel", seen)
	}
}
