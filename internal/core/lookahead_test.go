package core

import (
	"bytes"
	"testing"

	"repro/internal/constraints"
	"repro/internal/stats"
)

// fuzzScenario decodes a small scenario from data, reading zeros once data
// runs out: up to 5 constrained locations plus 2 candidate locations beyond
// the compiled constraint range, up to 8 timestamps, random DU, LT (minimum
// stay from 1) and TT (ν from 1) constraints, and the end-latency mode. It
// also returns the bytes it did not read.
func fuzzScenario(data []byte) (*LSequence, *constraints.Set, constraints.EndLatencyMode, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	numLocs := 2 + next()%4
	ic := constraints.NewSet()
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i == j {
				continue
			}
			switch b := next(); b % 4 {
			case 1:
				ic.AddDU(i, j)
			case 2:
				if err := ic.AddTT(i, j, 1+b/4%5); err != nil {
					panic(err)
				}
			}
		}
		ic.AddLT(i, 1+next()%3)
	}
	mode := constraints.LenientEnd
	if next()%2 == 1 {
		mode = constraints.StrictEnd
	}
	duration := 1 + next()%8
	dists := make([][]float64, duration)
	for t := range dists {
		row := make([]float64, numLocs+2)
		mask := next()
		for loc := range row {
			if mask&(1<<loc) != 0 {
				row[loc] = float64(1 + next()%8)
			}
		}
		if mask&(1<<len(row)-1) == 0 {
			row[t%len(row)] = 1
		}
		total := 0.0
		for _, w := range row {
			total += w
		}
		for loc := range row {
			row[loc] /= total
		}
		dists[t] = row
	}
	return FromDistributions(dists), ic, mode, data
}

// scenarioBytes encodes a randomScenario in fuzzScenario's format, for a
// seed: candidate weights are quantized to 1..8, and a pair with both a DU
// and a TT constraint keeps the DU. schedule is appended after it.
func scenarioBytes(ls *LSequence, ic *constraints.Set, schedule []byte) []byte {
	numLocs := max(2, ls.NumLocations())
	data := []byte{byte(numLocs - 2)}
	for i := 0; i < numLocs; i++ {
		for j := 0; j < numLocs; j++ {
			if i == j {
				continue
			}
			b := byte(0)
			if ic.Unreachable(i, j) {
				b = 1
			} else if nu, ok := ic.TT(i, j); ok {
				b = byte(2 + 4*((nu-1)%5))
			}
			data = append(data, b)
		}
		minStay, _ := ic.Latency(i)
		data = append(data, byte(max(minStay, 1)-1))
	}
	data = append(data, 0, byte(ls.Duration()-1))
	for _, step := range ls.Steps {
		mask, weights := 0, []byte(nil)
		for _, c := range step.Candidates { // in location order, as FromDistributions lists them
			mask |= 1 << c.Loc
			weights = append(weights, byte(min(max(int(c.P*8), 1), 8)-1))
		}
		data = append(append(data, byte(mask)), weights...)
	}
	return append(data, schedule...)
}

// FuzzBuildLookahead: on any scenario Build with Options.Quotient, which
// drops dead TL entries by lookahead, fails exactly when Build does, and
// otherwise encodes byte for byte like the quotient of Build's graph and
// satisfies the ct-graph invariants.
func FuzzBuildLookahead(f *testing.F) {
	rng := stats.NewRNG(20140330)
	for i := 0; i < 32; i++ {
		seed := make([]byte, 64)
		for j := range seed {
			seed[j] = byte(rng.Intn(256))
		}
		f.Add(seed)
	}
	f.Add([]byte{3, 2, 6, 2, 10, 0, 14, 0, 2, 0, 1, 7, 255, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		ls, ic, mode, _ := fuzzScenario(data)
		g, err := Build(ls, ic, &Options{EndLatency: mode})
		got, gotErr := Build(ls, ic, &Options{EndLatency: mode, Quotient: true})
		if (err == nil) != (gotErr == nil) {
			t.Fatalf("build err %v, quotient build err %v", err, gotErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encoded(t, got), encoded(t, g.Quotient())) {
			t.Fatal("quotient build differs from the quotient of the build")
		}
		if err := got.CheckInvariants(1e-9); err != nil {
			t.Fatalf("quotient build invariants: %v", err)
		}
	})
}
