package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// deadEndScenario returns a stream read at locations 0 and 2 for dead
// timestamps, then only at 1, which neither reaches.
func deadEndScenario(dead, duration int) (*LSequence, *constraints.Set) {
	ic := constraints.NewSet()
	ic.AddDU(0, 1)
	ic.AddDU(2, 1)
	ic.AddLT(0, 2)
	ls := &LSequence{Steps: make([]Step, duration)}
	for t := range ls.Steps {
		if t < dead {
			ls.Steps[t].Candidates = []Candidate{{Loc: 0, P: 0.7}, {Loc: 2, P: 0.3}}
		} else {
			ls.Steps[t].Candidates = []Candidate{{Loc: 1, P: 1}}
		}
	}
	return ls, ic
}

// TestPoolInvisible: kernels come back from the pool holding whatever the
// builds and stream sessions before left in them, and none of it shows.
// Random Builds are interleaved with stream sessions that observe, smooth
// and are released at random points — mid-stream, after a dead end, after a
// smooth — and every graph either returns encodes byte for byte like a Build
// over the same readings on an empty pool, with the same error; a Build also
// explains itself alike, wall times aside.
func TestPoolInvisible(t *testing.T) {
	rng := stats.NewRNG(2718)
	type scenario struct {
		ls *LSequence
		ic *constraints.Set
	}
	var scs []scenario
	for i := 0; i < 24; i++ {
		var sc scenario
		switch i % 4 {
		case 0:
			sc.ls, sc.ic = randomScenario(rng)
		case 1:
			sc.ls, sc.ic = benchScenarioN(rng.IntRange(20, 240))
		case 2:
			steps, ic := longScenario(rng.IntRange(20, 240))
			sc.ls, sc.ic = &LSequence{Steps: make([]Step, len(steps))}, ic
			for k, cands := range steps {
				sc.ls.Steps[k].Candidates = cands
			}
		default:
			dead := rng.IntRange(1, 30)
			sc.ls, sc.ic = deadEndScenario(dead, dead+rng.IntRange(1, 5))
		}
		scs = append(scs, sc)
	}
	// deadAt[i] is how many readings of scenario i a stream accepts.
	deadAt := make([]int, len(scs))
	for i, sc := range scs {
		st := NewBuildState(sc.ic)
		for _, step := range sc.ls.Steps {
			if st.Observe(step.Candidates) != nil {
				break
			}
		}
		deadAt[i] = st.Duration()
		st.Release()
	}

	// The script first, so every reference is built before any of it runs:
	// a reference is built on an empty pool, which running the script must
	// not have.
	type key struct {
		sc, n            int
		strict, quotient bool
	}
	type op struct {
		kind    byte // 'b'uild, 'o'pen, 'a'dvance, 's'mooth, 'r'elease
		session int
		key     key
	}
	type session struct{ sc, n, observed int }
	var script []op
	var open []int // indexes into sessions of the open ones
	var sessions []session
	keys := map[key]bool{}
	for len(script) < 1500 {
		k := key{sc: rng.Intn(len(scs)), strict: rng.Intn(2) == 0, quotient: rng.Intn(2) == 0}
		switch r := rng.Intn(10); {
		case r == 0 || len(open) == 0 && r < 5:
			k.n = rng.IntRange(1, scs[k.sc].ls.Duration())
			keys[k] = true
			script = append(script, op{kind: 'b', key: k})
		case r < 2 || len(open) == 0:
			sessions = append(sessions, session{sc: k.sc})
			open = append(open, len(sessions)-1)
			script = append(script, op{kind: 'o', session: len(sessions) - 1})
		default:
			i := rng.Intn(len(open))
			s := &sessions[open[i]]
			switch r := rng.Intn(10); {
			case r < 6 && s.observed < scs[s.sc].ls.Duration():
				// Observing past deadAt fails and appends no level.
				s.observed++
				s.n = min(s.observed, deadAt[s.sc])
				script = append(script, op{kind: 'a', session: open[i]})
			case r < 8 && s.n > 0:
				k.sc, k.n = s.sc, s.n
				keys[k] = true
				script = append(script, op{kind: 's', session: open[i], key: k})
			default:
				script = append(script, op{kind: 'r', session: open[i]})
				open = append(open[:i], open[i+1:]...)
			}
		}
	}
	options := func(k key) *Options {
		o := &Options{EndLatency: constraints.LenientEnd, Quotient: k.quotient}
		if k.strict {
			o.EndLatency = constraints.StrictEnd
		}
		return o
	}
	type result struct {
		enc []byte
		err error
		ex  BuildExplain // a Build's, without its wall times
	}
	encode := func(g *Graph, err error) result {
		if err != nil {
			return result{err: err}
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return result{enc: buf.Bytes()}
	}
	build := func(k key) result {
		sc, opts := scs[k.sc], options(k)
		var ex BuildExplain
		opts.Explain = &ex
		r := encode(Build(prefixLS(sc.ls, k.n), sc.ic, opts))
		ex.CompileNanos, ex.ForwardNanos, ex.BackwardNanos, ex.ReviseNanos = 0, 0, 0, 0
		r.ex = ex
		return r
	}
	same := func(got, want result) bool {
		return errors.Is(got.err, ErrNoValidTrajectory) == errors.Is(want.err, ErrNoValidTrajectory) &&
			(got.err == nil) == (want.err == nil) && bytes.Equal(got.enc, want.enc)
	}
	refs := map[key]result{}
	for k := range keys {
		runtime.GC()
		runtime.GC() // the second collection empties the pool
		refs[k] = build(k)
	}

	states := make([]*BuildState, len(sessions))
	dead := make([]bool, len(sessions))
	pos := make([]int, len(sessions))
	counts := map[byte]int{}
	for i, o := range script {
		counts[o.kind]++
		switch o.kind {
		case 'b':
			got, want := build(o.key), refs[o.key]
			if !same(got, want) {
				t.Fatalf("op %d: Build of %+v (err %v) differs from a build on an empty pool (err %v)", i, o.key, got.err, want.err)
			}
			if !reflect.DeepEqual(got.ex, want.ex) {
				t.Fatalf("op %d: Build of %+v explains\n%+v\nbut on an empty pool\n%+v", i, o.key, got.ex, want.ex)
			}
		case 'o':
			states[o.session] = NewBuildState(scs[sessions[o.session].sc].ic)
		case 'a':
			st, ls := states[o.session], scs[sessions[o.session].sc].ls
			step := pos[o.session]
			pos[o.session]++
			if dead[o.session] {
				continue
			}
			if err := st.Observe(ls.Steps[step].Candidates); err != nil {
				if !errors.Is(err, ErrNoValidTrajectory) {
					t.Fatalf("op %d: observe %d: %v", i, step, err)
				}
				dead[o.session] = true
				counts['d']++
			}
		case 's':
			if n := states[o.session].Duration(); n != o.key.n {
				t.Fatalf("op %d: session has %d readings, the script expects %d", i, n, o.key.n)
			}
			got := encode(states[o.session].Smooth(options(o.key)))
			if !same(got, refs[o.key]) {
				t.Fatalf("op %d: Smooth of %+v (err %v) differs from a build on an empty pool (err %v)", i, o.key, got.err, refs[o.key].err)
			}
		case 'r':
			st := states[o.session]
			st.Release()
			if err := st.Observe(nil); !errors.Is(err, ErrReleased) {
				t.Fatalf("op %d: Observe after Release: %v", i, err)
			}
			if _, err := st.Smooth(nil); !errors.Is(err, ErrReleased) {
				t.Fatalf("op %d: Smooth after Release: %v", i, err)
			}
			if _, err := st.Distribution(); !errors.Is(err, ErrReleased) {
				t.Fatalf("op %d: Distribution after Release: %v", i, err)
			}
			if _, err := st.TopLocations(1); !errors.Is(err, ErrReleased) {
				t.Fatalf("op %d: TopLocations after Release: %v", i, err)
			}
			if st.Duration() != 0 || st.Time() != -1 || st.FrontierSize() != 0 || st.InternerRebuilds() != 0 {
				t.Fatalf("op %d: released state reports duration %d, time %d, frontier %d, rebuilds %d",
					i, st.Duration(), st.Time(), st.FrontierSize(), st.InternerRebuilds())
			}
			st.Release()
		}
	}
	t.Logf("%d references; ops: %d builds, %d opens, %d observes (%d dead ends), %d smooths, %d releases",
		len(refs), counts['b'], counts['o'], counts['a'], counts['d'], counts['s'], counts['r'])
	if counts['d'] == 0 || counts['r'] == 0 || counts['s'] == 0 {
		t.Fatal("the script reached no dead end, release or smooth")
	}
}
