package main

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	rfidclean "repro"
)

func TestWorkloadValidation(t *testing.T) {
	base := workload{Name: "w", Rate: 10, Primary: []string{reqClean}, Secondary: []string{reqClean}}
	mix := func(kinds ...string) []mixEntry {
		var out []mixEntry
		for _, k := range kinds {
			out = append(out, mixEntry{k, 1})
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		edit    func(*workload)
		wantErr string
	}{
		{"empty mix", func(w *workload) {}, "needs a mix"},
		{"no secondary kind", func(w *workload) { w.Mix = mix(kindClean); w.Secondary = nil }, "secondary"},
		{"queries need prefilled targets", func(w *workload) { w.Mix = mix(kindStay) }, "prefilled targets"},
		{"pattern queries too", func(w *workload) { w.Mix = mix(kindClean, kindPattern) }, "prefilled targets"},
		{"negative prefill", func(w *workload) { w.Mix = mix(kindClean); w.Prefill = -1 }, "negative prefill"},
		{"zero weight", func(w *workload) { w.Mix = []mixEntry{{kindClean, 0}} }, "positive"},
		{"rate", func(w *workload) { w.Mix = mix(kindClean); w.Rate = 0 }, "rate"},
	} {
		w := base
		tc.edit(&w)
		if err := w.validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: validate error = %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
	ok := base
	ok.Mix, ok.Prefill = mix(kindStay, kindTop), 1
	if err := ok.validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	for _, w := range workloads {
		if err := w.validate(); err != nil {
			t.Error(err)
		}
	}
}

// smallWorkload is a quick plan exercising every HTTP op kind.
func smallWorkload() workload {
	return workload{
		Name: "small",
		Mix: []mixEntry{
			{kindClean, 6}, {kindBatch, 2}, {kindStream, 4}, {kindStay, 3}, {kindPattern, 3}, {kindTop, 2},
		},
		Primary:   []string{reqClean},
		Secondary: []string{reqReadings},
		Rate:      20, Prefill: 2,
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	w := smallWorkload()
	a, err := synthesize(w, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := synthesize(w, 7, time.Second)
	c, _ := synthesize(w, 8, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different plans")
	}
	if reflect.DeepEqual(a.Ops, c.Ops) || reflect.DeepEqual(a.Deps[0].Seqs, c.Deps[0].Seqs) {
		t.Error("different seeds gave the same inputs")
	}
	// Pattern ops name locations of their deployment's plan.
	for _, o := range a.Ops {
		if o.Kind != kindPattern {
			continue
		}
		loc := strings.Fields(o.Pattern)[1]
		loc, _, _ = strings.Cut(loc, "[")
		if !slices.Contains(a.Deps[o.Dep].Locations, loc) {
			t.Errorf("pattern %q names no location of deployment %d", o.Pattern, o.Dep)
		}
	}
}

func TestSynthesizeExactMixAndEvenCoverage(t *testing.T) {
	w := smallWorkload()
	// 2 s of warm-up at 20 op/s: 40 slots, then a 1-s window of 20.
	p, err := synthesize(w, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 40, 20
	if len(p.Ops) != warm+measured {
		t.Fatalf("%d ops, want %d", len(p.Ops), warm+measured)
	}
	for i, o := range p.Ops {
		if want := time.Duration(i) * 50 * time.Millisecond; o.At != want || o.Warm != (i < warm) {
			t.Fatalf("op %d due at %s (warm %v), want %s (warm %v)", i, o.At, o.Warm, want, i < warm)
		}
	}
	inputs := p.Ops
	counts := map[bool]map[string]int{true: {}, false: {}}
	targets := map[[2]int]int{}
	streams := map[[2]bool]int{}
	tags := map[[2]int]bool{}
	for _, o := range inputs {
		counts[o.Warm][o.Kind]++
		switch o.Kind {
		case kindStay, kindPattern, kindTop:
			targets[[2]int{o.Dep, o.Tag}]++
			continue
		case kindStream:
			streams[[2]bool{o.Smooth, o.Subscribe}]++
		}
		// Every clean, batch and stream input has sequences of its own,
		// after the prefilled ones.
		if o.Tag < p.Prefill || tags[[2]int{o.Dep, o.Tag}] {
			t.Errorf("input %+v reuses tag %d", o, o.Tag)
		}
		tags[[2]int{o.Dep, o.Tag}] = true
	}
	// The 20 measured and the 40 warm-up inputs each in the ratio
	// 6:2:4:3:3:2 out of 20.
	want := map[bool]map[string]int{
		false: {kindClean: 6, kindBatch: 2, kindStream: 4, kindStay: 3, kindPattern: 3, kindTop: 2},
		true:  {kindClean: 12, kindBatch: 4, kindStream: 8, kindStay: 6, kindPattern: 6, kindTop: 4},
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("mix counts %v, want %v", counts, want)
	}
	// 24 queries over 4 prefilled targets: 6 each.
	for k, n := range targets {
		if n != 6 || k[1] >= w.Prefill {
			t.Errorf("target %v asked %d times", k, n)
		}
	}
	// 12 streams cycle through the 4 option combinations.
	for k, n := range streams {
		if n != 3 {
			t.Errorf("stream options %v used %d times, want 3", k, n)
		}
	}
}

func TestMatcherTakesClosestUnusedSequences(t *testing.T) {
	weigh := func(nodes ...int) []weighed {
		var out []weighed
		for _, n := range nodes {
			out = append(out, weighed{seq: make(rfidclean.ReadingSequence, n), nodes: n})
		}
		return out
	}
	m := &matcher{ref: weigh(10, 20, 30, 40), pool: weigh(9, 11, 19, 30, 31, 100)}
	m.used = make([]bool, len(m.pool))
	take := func(n int) []int {
		var out []int
		for _, s := range m.take(n) {
			out = append(out, len(s))
		}
		return out
	}
	// Quantiles 1/4 and 3/4 of the reference are 20 and 40.
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{2, []int{19, 31}},
		{2, []int{11, 30}},      // 19 and 31 are taken
		{3, []int{9, 100, 100}}, // the pool runs out: sequences repeat
	} {
		if got := take(tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("take(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
