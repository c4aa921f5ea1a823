package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// TestDecodeRejectsHugeDuration: a 60-byte body declaring four trillion
// timestamps used to size the level table before any check and kill the
// process with an out-of-memory fatal error. A duration beyond the node
// count is malformed (every level holds a node) and must be an error.
func TestDecodeRejectsHugeDuration(t *testing.T) {
	for _, body := range []string{
		`{"version":1,"duration":4000000000000,"nodes":[],"edges":[]}`,
		`{"version":1,"duration":2,"nodes":[{"time":0,"loc":0,"prob":1}],"edges":[]}`,
	} {
		if _, err := Decode(strings.NewReader(body)); err == nil {
			t.Errorf("accepted %s", body)
		} else if !strings.Contains(err.Error(), "duration") {
			t.Errorf("error does not name the duration: %v", err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode. It must never panic, every
// graph it accepts must satisfy the ct-graph invariants, and re-encoding an
// accepted graph must be a fixed point: decoding the encoding and encoding
// again reproduces the same bytes, and those bytes are encoding/json's.
func FuzzDecode(f *testing.F) {
	for _, g := range sampleGraphs(f) {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"version":1,"duration":4000000000000,"nodes":[],"edges":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.CheckInvariants(1e-6); err != nil {
			t.Fatalf("accepted graph violates invariants: %v", err)
		}
		var first bytes.Buffer
		if err := g.Encode(&first); err != nil {
			t.Fatalf("encoding an accepted graph: %v", err)
		}
		if want, err := referenceEncode(g); err != nil || !bytes.Equal(first.Bytes(), want) {
			t.Fatalf("Encode differs from encoding/json (err %v):\n got %s\nwant %s", err, first.Bytes(), want)
		}
		back, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted graph: %v", err)
		}
		var second bytes.Buffer
		if err := back.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// sampleGraphs returns eight random-scenario graphs plus a long scenario
// built under both end-latency modes.
func sampleGraphs(tb testing.TB) []*Graph {
	tb.Helper()
	var graphs []*Graph
	rng := stats.NewRNG(606)
	for len(graphs) < 8 {
		ls, ic := randomScenario(rng)
		if g, err := Build(ls, ic, nil); err == nil {
			graphs = append(graphs, g)
		} else if !errors.Is(err, ErrNoValidTrajectory) {
			tb.Fatal(err)
		}
	}
	steps, ic := longScenario(12)
	ls := &LSequence{Steps: make([]Step, len(steps))}
	for t, cands := range steps {
		ls.Steps[t].Candidates = cands
	}
	for _, mode := range []constraints.EndLatencyMode{constraints.StrictEnd, constraints.LenientEnd} {
		g, err := Build(ls, ic, &Options{EndLatency: mode})
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// referenceEncode is the reflection-driven encoding Encode must reproduce
// byte for byte: the graphJSON view of g through encoding/json.
func referenceEncode(g *Graph) ([]byte, error) {
	out := graphJSON{Version: graphFormatVersion, Duration: g.Duration()}
	offsets := make([]int, g.Duration()+1)
	for t := 0; t < g.Duration(); t++ {
		lvl := g.Level(t)
		offsets[t+1] = offsets[t] + lvl.Width()
		for i := 0; i < lvl.Width(); i++ {
			stay, tl := g.identity(t, i)
			out.Nodes = append(out.Nodes, nodeJSON{
				Time: t, Loc: lvl.Loc(i), Stay: stay, TL: tl, Prob: lvl.SourceProb(i),
			})
		}
	}
	for t := 0; t < g.Duration(); t++ {
		lvl := g.Level(t)
		for i := 0; i < lvl.Width(); i++ {
			arcs := lvl.Out(i)
			for k := 0; k < arcs.Len(); k++ {
				to, p := arcs.At(k)
				out.Edges = append(out.Edges, edgeJSON{From: offsets[t] + i, To: offsets[t+1] + to, P: p})
			}
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&out)
	return buf.Bytes(), err
}

// twoNodeGraph is a one-edge graph carrying the given source probability
// and edge probability, for exercising the float encoding directly.
func twoNodeGraph(prob, p float64) *Graph {
	return &Graph{
		levelOff: []int32{0, 1, 2},
		loc:      []int32{1, 2},
		arcOff:   []int32{0, 1, 1},
		to:       []int32{0},
		p:        []float64{p},
		src:      []float64{prob},
		stay:     []int32{0, 3},
		tlOff:    []int32{0, 0, 2},
		tl:       []TLEntry{{Time: 0, Loc: 1}, {Time: 0, Loc: 4}},
	}
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	graphs := sampleGraphs(t)
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 1e-7, -1e-7, 1.5e-9, 1e-10,
		5e-324, math.MaxFloat64, 1e20, 1e21, -1e21, 123456789.125, 0.999999999999,
	}
	for _, f := range floats {
		graphs = append(graphs, twoNodeGraph(f, f))
	}
	lone := &Graph{levelOff: []int32{0, 1}, loc: []int32{0}, arcOff: []int32{0, 0}, src: []float64{1}}
	graphs = append(graphs, &Graph{}, lone)
	for i, g := range graphs {
		want, err := referenceEncode(g)
		if err != nil {
			t.Fatalf("graph %d: reference encoding: %v", i, err)
		}
		var plain bytes.Buffer
		if err := g.Encode(&plain); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !bytes.Equal(plain.Bytes(), want) {
			t.Fatalf("graph %d: Encode differs from encoding/json:\n got %s\nwant %s", i, plain.Bytes(), want)
		}
		// A non-Buffer writer takes the same bytes.
		var sb strings.Builder
		if err := g.Encode(&sb); err != nil || sb.String() != string(want) {
			t.Fatalf("graph %d: Encode into a strings.Builder differs (err %v)", i, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, g := range []*Graph{twoNodeGraph(bad, 1), twoNodeGraph(1, bad)} {
			if _, err := referenceEncode(g); err == nil {
				t.Fatalf("reference encoding accepted %v", bad)
			}
			var buf bytes.Buffer
			buf.WriteString("prefix")
			if err := g.Encode(&buf); err == nil {
				t.Errorf("Encode accepted %v", bad)
			} else if buf.String() != "prefix" {
				t.Errorf("failed Encode of %v wrote %q", bad, buf.String())
			}
		}
	}
}
