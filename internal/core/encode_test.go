package core

import (
	"bytes"
	"errors"
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
// again reproduces the same bytes.
func FuzzDecode(f *testing.F) {
	var seeds []*Graph
	rng := stats.NewRNG(606)
	for len(seeds) < 8 {
		ls, ic := randomScenario(rng)
		if g, err := Build(ls, ic, nil); err == nil {
			seeds = append(seeds, g)
		} else if !errors.Is(err, ErrNoValidTrajectory) {
			f.Fatal(err)
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
			f.Fatal(err)
		}
		seeds = append(seeds, g)
	}
	for _, g := range seeds {
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
