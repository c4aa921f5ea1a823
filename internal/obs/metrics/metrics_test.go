package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var r Registry
	h := r.Histogram("x", "help", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	got := buf.String()
	for _, want := range []string{
		"# HELP x help\n# TYPE x histogram\n",
		`x_bucket{le="1"} 2`, // 0.5 and the boundary value 1
		`x_bucket{le="10"} 3`,
		`x_bucket{le="100"} 4`,
		`x_bucket{le="+Inf"} 5`,
		`x_count 5`,
		`x_sum 556.5`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 || counts[0] != 2 || counts[3] != 1 {
		t.Errorf("Buckets() = %v, %v", bounds, counts)
	}
}

func TestLabeledCounterRendering(t *testing.T) {
	var r Registry
	l := r.CounterVec("reqs", "help", "mode", "outcome")
	l.Inc("single", "ok")
	l.Inc("single", "ok")
	l.Inc("batch", "error")
	var buf bytes.Buffer
	r.WriteText(&buf)
	got := buf.String()
	if !strings.Contains(got, `reqs{mode="single",outcome="ok"} 2`) ||
		!strings.Contains(got, `reqs{mode="batch",outcome="error"} 1`) {
		t.Errorf("unexpected rendering:\n%s", got)
	}
	if l.Get("single", "ok") != 2 || l.Get("nope", "nope") != 0 {
		t.Error("labeled get mismatch")
	}
}

// TestRegistrationOrder pins that families render in registration order,
// each under its own header, and labeled series in sorted value order.
func TestRegistrationOrder(t *testing.T) {
	var r Registry
	r.Gauge("b_gauge", "second").Set(-2)
	g := r.GaugeVec("a_up", "first", "shard")
	g.Set("2", 1)
	g.Set("10", 0)
	r.Counter("c_total", "third").Add(7)
	hv := r.HistogramVec("d_seconds", "fourth", "phase", 1)
	hv.Observe("x", 2)
	var buf bytes.Buffer
	r.WriteText(&buf)
	want := "# HELP b_gauge second\n# TYPE b_gauge gauge\nb_gauge -2\n" +
		"# HELP a_up first\n# TYPE a_up gauge\na_up{shard=\"10\"} 0\na_up{shard=\"2\"} 1\n" +
		"# HELP c_total third\n# TYPE c_total counter\nc_total 7\n" +
		"# HELP d_seconds fourth\n# TYPE d_seconds histogram\n" +
		"d_seconds_bucket{phase=\"x\",le=\"1\"} 0\nd_seconds_bucket{phase=\"x\",le=\"+Inf\"} 1\n" +
		"d_seconds_sum{phase=\"x\"} 2\nd_seconds_count{phase=\"x\"} 1\n"
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	var r Registry
	v := r.CounterVec("x", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("no panic on a label arity mismatch")
		}
	}()
	v.Inc("only-one")
}
