package core

import (
	"bytes"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// benchScenario builds a fixed mid-size l-sequence and constraint set.
func benchScenario() (*LSequence, *constraints.Set) {
	return benchScenarioN(200)
}

// benchScenarioN is benchScenario with a chosen duration, for benchmarks
// that need a stream longer than the mid-size default.
func benchScenarioN(duration int) (*LSequence, *constraints.Set) {
	rng := stats.NewRNG(99)
	const numLocs = 8
	dists := make([][]float64, duration)
	for t := range dists {
		row := make([]float64, numLocs)
		total := 0.0
		k := rng.IntRange(2, 4)
		for i := 0; i < k; i++ {
			row[rng.Intn(numLocs)] += rng.Range(0.1, 1)
		}
		// Location 0 is always possible, keeping the scenario consistent
		// (staying at 0 forever satisfies every constraint below).
		row[0] += 0.2
		for _, v := range row {
			total += v
		}
		if total == 0 {
			row[0], total = 1, 1
		}
		for i := range row {
			row[i] /= total
		}
		dists[t] = row
	}
	ls := FromDistributions(dists)
	ic := newBenchConstraints(numLocs)
	return ls, ic
}

func newBenchConstraints(numLocs int) *constraints.Set {
	ic := constraints.NewSet()
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i != j && (i+j)%3 == 0 {
				ic.AddDU(i, j)
			}
		}
	}
	ic.AddLT(1, 3)
	ic.AddLT(2, 2)
	_ = ic.AddTT(0, 4, 5)
	_ = ic.AddTT(3, 7, 4)
	return ic
}

// BenchmarkAlgorithm1 measures the full forward+backward construction.
func BenchmarkAlgorithm1(b *testing.B) {
	ls, ic := benchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ls, ic, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild is BenchmarkAlgorithm1 under the name the CI bench smoke
// and the acceptance pattern (-bench 'Build|Marginals|TopK') select.
func BenchmarkBuild(b *testing.B) { BenchmarkAlgorithm1(b) }

// BenchmarkMarginals measures the smoothed per-timestamp distributions
// (forward + backward pass plus the location aggregation).
func BenchmarkMarginals(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Marginals(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardBackward measures the alpha/beta passes used by queries.
func BenchmarkForwardBackward(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Forward()
		g.Backward()
	}
}

// BenchmarkStateObserve measures the streaming ingest path a stream session
// runs: a fresh quotient-only BuildState, as the server opens, observing
// every step of benchScenario.
func BenchmarkStateObserve(b *testing.B) {
	ls, ic := benchScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewBuildState(ic)
		for _, step := range ls.Steps {
			if err := st.Observe(step.Candidates); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTopK measures k-best decoding.
func BenchmarkTopK(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trajs, _ := g.TopK(5); len(trajs) == 0 {
			b.Fatal("no trajectories")
		}
	}
}

// BenchmarkSessionSmooth500 measures the server's smooth of a long stream
// session: a quotient-only session that has observed (and smoothed) 500
// readings takes one more and re-smooths with Options.Quotient, as the
// server does. Only that
// Smooth is timed — in the server, Observe runs at ingestion (POST
// readings), not at smoothing time — and every iteration rebuilds the same
// 501-reading session untimed, so the number is stable in b.N. The smooth
// reconditions every level and sweeps the whole graph into the quotient.
func BenchmarkSessionSmooth500(b *testing.B) {
	const warm = 500
	ls, ic := benchScenarioN(warm + 1)
	opts := &Options{Quotient: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewBuildState(ic)
		for _, step := range ls.Steps[:warm] {
			if err := st.Observe(step.Candidates); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := st.Smooth(opts); err != nil {
			b.Fatal(err)
		}
		if err := st.Observe(ls.Steps[warm].Candidates); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Smooth(opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Release()
		b.StartTimer()
	}
}

// BenchmarkFullSmooth500 is Algorithm 1 end to end over the same 501
// readings: the forward phase BenchmarkSessionSmooth500's session ran at
// ingestion, plus the backward phase and the frozen graph.
func BenchmarkFullSmooth500(b *testing.B) {
	ls, ic := benchScenarioN(501)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ls, ic, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures graph serialization the way the persister does
// it: into one bytes.Buffer reset and reused across graphs.
func BenchmarkEncode(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures the recovery path: decoding the encoded
// benchScenario graph back into a queryable graph, invariants checked.
func BenchmarkDecode(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBinary measures the write-ahead log's encoding: the
// benchScenario graph's binary record, appended into one reused slice.
func BenchmarkEncodeBinary(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := g.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec, err = g.AppendBinary(rec[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBinary measures recovery's decoding: the benchScenario
// graph's binary record back into a queryable graph, invariants checked.
func BenchmarkDecodeBinary(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := g.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(rec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuotient measures the quotient pass the server runs on every
// graph it stores, over the benchScenario graph.
func BenchmarkQuotient(b *testing.B) {
	ls, ic := benchScenario()
	g, err := Build(ls, ic, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Quotient()
	}
}

// BenchmarkBuildQuotient measures the serving build: Build with
// Options.Quotient, which drops dominated TL entries (benchScenario has TT
// constraints) and returns the quotient, pooling its kernel across
// iterations.
func BenchmarkBuildQuotient(b *testing.B) {
	ls, ic := benchScenario()
	opts := &Options{Quotient: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ls, ic, opts); err != nil {
			b.Fatal(err)
		}
	}
}
