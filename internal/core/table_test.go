package core

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// TestKeyTableMatchesMap: a keyTable assigns every key the ID a Go map that
// numbers keys in first-sight order assigns it, through fills that grow the
// table in their middle, resets (some at a stamp about to wrap), trims of
// tables past keepNodes slots, and keys that all hash to one slot of every
// table up to 1024 slots.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := stats.NewRNG(31)
	var collide []tableKey
	for len(collide) < 96 {
		k := tableKey{hi: rng.Uint64() & 0xffff, lo: rng.Uint64() & 0xffff}
		if k.hash()&1023 == 0 && !slices.Contains(collide, k) {
			collide = append(collide, k)
		}
	}
	draw := func() tableKey {
		switch rng.Intn(4) {
		case 0:
			return collide[rng.Intn(len(collide))]
		case 1: // a dedup key
			return nodeKey{loc: int32(rng.Intn(40)), stay: int32(rng.IntRange(-1, 5)), tl: tlID(rng.Intn(30))}.packed()
		default:
			return tableKey{hi: uint64(rng.Intn(64)), lo: uint64(rng.Intn(64))}
		}
	}
	var tab keyTable
	grows, trims, wraps := 0, 0, 0
	for fill := 0; fill < 300; fill++ {
		if fill%7 == 3 {
			tab.stamp = math.MaxInt32 - int32(rng.Intn(2))
			wraps++
		}
		tab.reset()
		n := rng.IntRange(0, 3000)
		if fill%50 == 49 {
			n = 40000
		}
		ref := map[tableKey]int32{}
		for i := 0; i < n; i++ {
			k := draw()
			want, seen := ref[k]
			if !seen {
				want = int32(len(ref))
				ref[k] = want
			}
			slots := len(tab.slots)
			got, added := tab.id(k)
			if got != want || added == seen {
				t.Fatalf("fill %d draw %d: key %+v got (%d, added %v), want (%d, added %v)", fill, i, k, got, added, want, !seen)
			}
			if slots != 0 && len(tab.slots) != slots && len(ref) > 1 {
				grows++
			}
		}
		if len(tab.keys) != len(ref) {
			t.Fatalf("fill %d: table holds %d keys, map %d", fill, len(tab.keys), len(ref))
		}
		for k, id := range ref {
			if tab.keys[id] != k {
				t.Fatalf("fill %d: ID %d holds %+v, want %+v", fill, id, tab.keys[id], k)
			}
		}
		if len(tab.slots) > keepNodes {
			trims++
		}
		tab.trim()
	}
	if grows == 0 || trims == 0 || wraps == 0 {
		t.Fatalf("grew mid-fill %d times, trimmed %d, wrapped %d: some path never ran", grows, trims, wraps)
	}
}

// mapInterner is a TL interner over a Go map, keyed by (prefix, entry): the
// reference the tlInterner must agree with.
type mapInterner struct {
	ids  map[mapLink]tlID
	seqs [][]TLEntry
}

type mapLink struct {
	prefix tlID
	entry  TLEntry
}

func (in *mapInterner) rebuild() {
	in.ids, in.seqs = map[mapLink]tlID{}, [][]TLEntry{nil}
}

func (in *mapInterner) intern(tl []TLEntry) tlID {
	id := tlID(0)
	for _, e := range tl {
		next, ok := in.ids[mapLink{id, e}]
		if !ok {
			next = tlID(len(in.seqs))
			in.ids[mapLink{id, e}] = next
			in.seqs = append(in.seqs, append(slices.Clip(in.seqs[id]), e))
		}
		id = next
	}
	return id
}

// seq returns the canonical slice for id.
func (in *tlInterner) seq(id tlID) []TLEntry { return in.entries(in.span(id)) }

// TestInternerMatchesMap: the interner hands out the tlIDs and canonical
// slices of a Go-map interner, with the rebuild before (almost) every step
// that internCap = 1 causes and an occasional reset.
func TestInternerMatchesMap(t *testing.T) {
	rng := stats.NewRNG(47)
	in, ref := newTLInterner(), &mapInterner{}
	ref.rebuild()
	rebuilds := 0
	var tl []TLEntry
	for step := 0; step < 400; step++ {
		switch {
		case step%97 == 96:
			in.reset()
			ref.rebuild()
		case in.size() > 1:
			in.rebuild()
			ref.rebuild()
			rebuilds++
		}
		if step%61 == 60 {
			in.links.stamp = math.MaxInt32
		}
		for i := rng.IntRange(0, 200); i > 0; i-- {
			tl = tl[:0]
			for j := rng.Intn(5); j > 0; j-- {
				tl = append(tl, TLEntry{Time: step - rng.Intn(8), Loc: rng.Intn(6)})
			}
			sortTL(tl)
			got, want := in.intern(tl), ref.intern(tl)
			if got != want {
				t.Fatalf("step %d: %v interned as %d, the map interner says %d", step, tl, got, want)
			}
			if !slices.Equal(in.seq(got), tl) {
				t.Fatalf("step %d: ID %d is %v, interned from %v", step, got, in.seq(got), tl)
			}
		}
		if in.size() != len(ref.ids) {
			t.Fatalf("step %d: interner holds %d links, the map interner %d", step, in.size(), len(ref.ids))
		}
	}
	if rebuilds < 100 {
		t.Fatalf("only %d rebuilds", rebuilds)
	}
}

// TestStampWrap: a pooled kernel bumps its dedup stamp once per level and its
// interner's once per rebuild or reset, for the life of the process. Here
// both are set just below math.MaxInt32 on kernels whose tables still hold
// slots stamped 1 and up by what they served before, so they wrap inside the
// builds and the stream sessions below, and every graph still encodes byte
// for byte like a build on an empty pool.
func TestStampWrap(t *testing.T) {
	ls, ic := benchScenarioN(60)
	steps, lic := longScenario(60)
	lls := &LSequence{Steps: make([]Step, len(steps))}
	for i, cands := range steps {
		lls.Steps[i].Candidates = cands
	}
	encode := func(g *Graph, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	options := []*Options{{EndLatency: constraints.LenientEnd}, {EndLatency: constraints.LenientEnd, Quotient: true}}
	var refs [2][2][]byte // by scenario, by Quotient
	for q, opts := range options {
		runtime.GC()
		runtime.GC() // the second collection empties the pool
		refs[0][q] = encode(Build(ls, ic, opts))
		runtime.GC()
		runtime.GC()
		refs[1][q] = encode(Build(lls, lic, opts))
	}

	// A stream session, its stamps set halfway and its interner rebuilt
	// before every step from then on.
	for q, opts := range options {
		st := newBuildState(lic, false)
		for i, cands := range steps {
			if i == len(steps)/2 {
				st.dedup.stamp = math.MaxInt32 - 5
				st.b.tl.links.stamp = math.MaxInt32 - 5
				st.internCap = 1
			}
			if err := st.Observe(cands); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if st.dedup.stamp > 100 || st.b.tl.links.stamp > 100 {
			t.Fatalf("stamps %d and %d did not wrap", st.dedup.stamp, st.b.tl.links.stamp)
		}
		g, err := st.Smooth(opts)
		if err == nil && opts.Quotient {
			g = g.Quotient()
		}
		if got := encode(g, err); !bytes.Equal(got, refs[1][q]) {
			t.Fatalf("Quotient %v: a session across the wrap smooths to a graph unlike Build's", opts.Quotient)
		}
		st.Release()
	}

	// Builds on one pooled kernel. With one P and no collection the pool
	// hands the kernel back to every Build; the race detector's pool drops
	// puts at random, so there the check of which kernel served is skipped.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	primed := getKernel(ic)
	primed.dedup, primed.b.tl.links = keyTable{}, keyTable{}
	primed.put()
	if _, err := Build(ls, ic, options[0]); err != nil { // stamps slots 1 and up
		t.Fatal(err)
	}
	primed = getKernel(ic)
	primed.dedup.stamp = math.MaxInt32 - 7
	primed.b.tl.links.stamp = math.MaxInt32 - 1
	primed.put()
	for i := 0; i < 6; i++ {
		sc := i % 2
		l, c := ls, ic
		if sc == 1 {
			l, c = lls, lic
		}
		for q, opts := range options {
			if got := encode(Build(l, c, opts)); !bytes.Equal(got, refs[sc][q]) {
				t.Fatalf("build %d of scenario %d, Quotient %v: differs from a build on an empty pool", i, sc, opts.Quotient)
			}
		}
	}
	if k := getKernel(ic); !raceEnabled && (k != primed || k.dedup.stamp > 1000 || k.b.tl.links.stamp > 1000) {
		t.Fatalf("the builds did not wrap the primed kernel's stamps (same kernel %v, stamps %d and %d)",
			k == primed, k.dedup.stamp, k.b.tl.links.stamp)
	}
}
