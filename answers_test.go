package rfidclean

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/dataset"
)

// pinnedDigest is the SHA-256 of every answer TestQueryAnswersPinned asks of
// one fixed SYN1 clean. Any change to it means some answer changed in at
// least one bit.
const pinnedDigest = "f8f851e7a2ba01097d6e580134b8b1c43ab2786f62636228b31a6f87cf8d6af9"

func buildSYN1(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	d, err := dataset.Build("SYN1", dataset.SYN1())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// cleanSYN1 cleans n seeded SYN1 sequences of the given duration under the
// given constraint selection.
func cleanSYN1(tb testing.TB, sel dataset.Selection, duration, n int) (*dataset.Dataset, []*Cleaned) {
	tb.Helper()
	d := buildSYN1(tb)
	insts, err := d.Generate(duration, n, 19)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*Cleaned, len(insts))
	for i, inst := range insts {
		ls, err := d.Prior.LSequence(inst.Readings)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := core.Build(ls, d.Constraints(sel), &core.Options{EndLatency: constraints.LenientEnd})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = newCleaned(g, d.Plan)
	}
	return d, out
}

// digest hashes float64s by their bits and ints as int64s, so two runs agree
// only when every answer is bit-identical.
type digest struct{ h hash.Hash }

func (d digest) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d digest) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		d.h.Write(b[:])
	}
}

// TestQueryAnswersPinned pins every marginal-, pattern- and path-based
// answer of one DU+LT+TT clean to a digest, so a refactor of the query
// passes that reassociates a single float sum fails here.
func TestQueryAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse a*b+c into one rounding on other architectures
		// (arm64, ppc64, s390x), which changes the bits the digest pins.
		t.Skip("answer digest is pinned for amd64 floating point")
	}
	_, cs := cleanSYN1(t, dataset.SelDULTTT, 120, 1)
	c := cs[0]
	dg := digest{sha256.New()}
	dur := c.Duration()
	for tau := 0; tau < dur; tau++ {
		dist, err := c.StayDistribution(tau)
		if err != nil {
			t.Fatal(err)
		}
		dg.floats(dist...)
	}
	best, bestP := c.MostProbable()
	dg.ints(best...)
	dg.floats(bestP)
	a, b := best[dur/4], best[3*dur/4]
	for _, p := range []Pattern{
		{Wild(), At(b, 5), Wild(), At(a, 1), Wild()},
		{Wild(), At(a, 1), Wild(), At(b, 1), Wild()},
		{At(best[0], 1), Wild()},
	} {
		pm, err := c.Match(p.Format(c.LocationName))
		if err != nil {
			t.Fatal(err)
		}
		dg.floats(pm)
	}
	trajs, probs := c.TopK(5)
	for _, tr := range trajs {
		dg.ints(tr...)
	}
	dg.floats(probs...)
	m, err := c.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m {
		dg.floats(row...)
	}
	occ, err := c.ExpectedOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	dg.floats(occ...)
	for _, ev := range c.Events() {
		dg.ints(ev.Loc, ev.From, ev.To)
		dg.floats(ev.Confidence)
	}
	for _, row := range c.TransitionMatrix() {
		dg.floats(row...)
	}
	for _, iv := range [][2]int{{0, dur / 3}, {dur / 2, dur - 1}} {
		for _, loc := range []int{a, b} {
			name := c.LocationName(loc)
			ever, err := c.EverIn(name, iv[0], iv[1])
			if err != nil {
				t.Fatal(err)
			}
			visit, err := c.ExpectedVisitTime(name, iv[0], iv[1])
			if err != nil {
				t.Fatal(err)
			}
			dg.floats(ever, visit)
		}
	}
	if got := hex.EncodeToString(dg.h.Sum(nil)); got != pinnedDigest {
		t.Fatalf("answer digest %s, want %s", got, pinnedDigest)
	}
}
