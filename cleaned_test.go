package rfidclean

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// runningExampleGraph is the paper's Fig. 7 ct-graph (one path L1, L3, L3
// with probability 1) as Encode writes it.
const runningExampleGraph = `{"version":1,"duration":3,"nodes":[{"time":0,"loc":1,"prob":1},` +
	`{"time":1,"loc":3,"stay":1,"tl":[{"Time":0,"Loc":1}]},{"time":2,"loc":3,"tl":[{"Time":0,"Loc":1}]}],` +
	`"edges":[{"from":0,"to":1,"p":1},{"from":1,"to":2,"p":1}]}`

// negativeLocGraph is a well-formed one-node graph at location -1.
const negativeLocGraph = `{"version":1,"duration":1,"nodes":[{"time":0,"loc":-1,"prob":1}],"edges":null}`

// TestDecodeCleanedRejectsForeignLocations is the regression test for a
// decoded graph naming a location outside the plan: a negative ID used to
// panic in the plan check, so one such WAL record crash-looped recovery.
func TestDecodeCleanedRejectsForeignLocations(t *testing.T) {
	plan := buildSYN1(t).Plan
	beyond := strings.Replace(runningExampleGraph, `"loc":3,"stay"`, `"loc":99,"stay"`, 1)
	for name, body := range map[string]string{"negative": negativeLocGraph, "beyond the plan": beyond} {
		if _, err := DecodeCleaned(strings.NewReader(body), plan); err == nil {
			t.Errorf("%s location accepted", name)
		}
	}
	if _, err := DecodeCleaned(strings.NewReader(beyond), plan); err == nil || !strings.Contains(err.Error(), "does not fit the plan") {
		t.Errorf("error %v does not say the graph does not fit the plan", err)
	}
	if _, err := DecodeCleaned(strings.NewReader(runningExampleGraph), plan); err != nil {
		t.Fatalf("running example rejected: %v", err)
	}
}

// FuzzDecodeCleaned feeds arbitrary bytes to DecodeCleaned against the SYN1
// plan. It must never panic, and every Cleaned it accepts must answer like a
// conditioned graph: stay distributions are finite and sum to 1, the
// match-anything pattern has probability 1, the path and marginal analytics
// run, and Encode is a byte fixed point through DecodeCleaned.
func FuzzDecodeCleaned(f *testing.F) {
	d, cs := cleanSYN1(f, dataset.SelDULTTT, 12, 2)
	for _, c := range cs {
		cs = append(cs, c.Quotient()) // the form the server stores
	}
	for _, c := range cs {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(runningExampleGraph))
	f.Add([]byte(negativeLocGraph))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCleaned(bytes.NewReader(data), d.Plan)
		if err != nil {
			return
		}
		for tau := 0; tau < c.Duration(); tau++ {
			dist, err := c.StayDistribution(tau)
			if err != nil {
				t.Fatalf("stay at %d: %v", tau, err)
			}
			var sum float64
			for _, p := range dist {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("stay at %d is not finite: %v", tau, dist)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("stay at %d sums to %v", tau, sum)
			}
		}
		if p, err := c.Match("?"); err != nil || math.Abs(p-1) > 1e-6 {
			t.Fatalf("Match(?) = %v, %v", p, err)
		}
		c.TopK(3)
		c.MostProbable()
		c.Events()
		c.TransitionMatrix()
		var first, second bytes.Buffer
		if err := c.Encode(&first); err != nil {
			t.Fatalf("encoding an accepted graph: %v", err)
		}
		back, err := DecodeCleaned(bytes.NewReader(first.Bytes()), d.Plan)
		if err != nil {
			t.Fatalf("re-decoding an accepted graph: %v", err)
		}
		if err := back.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
