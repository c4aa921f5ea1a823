package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// binaryGraphs returns the sample graphs and their quotients.
func binaryGraphs(tb testing.TB) []*Graph {
	built := sampleGraphs(tb)
	graphs := append([]*Graph(nil), built...)
	for _, g := range built {
		graphs = append(graphs, g.Quotient())
	}
	return graphs
}

// twoSourceGraph is a two-level graph whose sources carry a and b, for
// exercising the stored floats directly.
func twoSourceGraph(a, b float64) *Graph {
	return &Graph{
		levelOff: []int32{0, 2, 3},
		loc:      []int32{1, 2, 3},
		arcOff:   []int32{0, 1, 2, 2},
		to:       []int32{0, 0},
		p:        []float64{1, 1},
		src:      []float64{a, b},
	}
}

func appendBinary(tb testing.TB, g *Graph) []byte {
	tb.Helper()
	b, err := g.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestBinaryRoundTrip: a binary record decodes to a graph that encodes, as
// JSON and as a record, to exactly the bytes of the graph it was written
// from, and the record of a graph read back from its JSON is the same.
func TestBinaryRoundTrip(t *testing.T) {
	graphs := append(binaryGraphs(t), twoNodeGraph(1, 1))
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-300, 5e-324, 0.1, 1.0 / 3} {
		graphs = append(graphs, twoSourceGraph(f, 1-f))
	}
	for i, g := range graphs {
		rec := appendBinary(t, g)
		if rec[0] != binaryFormat {
			t.Fatalf("graph %d: record starts with %#x", i, rec[0])
		}
		back, err := Decode(bytes.NewReader(rec))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if again := appendBinary(t, back); !bytes.Equal(again, rec) {
			t.Fatalf("graph %d: re-encoded record differs", i)
		}
		if got, want := encoded(t, back), encoded(t, g); !bytes.Equal(got, want) {
			t.Fatalf("graph %d: JSON of the decoded record differs:\n got %s\nwant %s", i, got, want)
		}
		fromJSON, err := Decode(bytes.NewReader(encoded(t, g)))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		// JSON omits a zero source probability, so a -0 comes back from it
		// as +0; the record keeps its bits.
		if negZero := g.src[0] == 0 && math.Signbit(g.src[0]); negZero != math.Signbit(back.src[0]) {
			t.Fatalf("graph %d: the record lost the sign of a zero", i)
		} else if got := appendBinary(t, fromJSON); !negZero && !bytes.Equal(got, rec) {
			t.Fatalf("graph %d: record of the JSON-decoded graph differs", i)
		}
		if back.Stats() != fromJSON.Stats() {
			t.Fatalf("graph %d: stats %+v from the record, %+v from JSON", i, back.Stats(), fromJSON.Stats())
		}
		// Appending keeps what the slice held.
		if got, err := g.AppendBinary([]byte("prefix")); err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], rec) {
			t.Fatalf("graph %d: appending after a prefix (err %v)", i, err)
		}
	}
}

// TestBinaryIsSmaller pins the point of the record: it is several times
// smaller than the JSON, stored quotients included.
func TestBinaryIsSmaller(t *testing.T) {
	for i, g := range binaryGraphs(t) {
		if rec, js := len(appendBinary(t, g)), len(encoded(t, g)); 3*rec > js {
			t.Errorf("graph %d: %d-byte record for %d bytes of JSON", i, rec, js)
		}
	}
}

func TestAppendBinaryRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, g := range []*Graph{twoNodeGraph(bad, 1), twoNodeGraph(1, bad)} {
			got, err := g.AppendBinary([]byte("prefix"))
			if err == nil {
				t.Errorf("AppendBinary accepted %v", bad)
			} else if string(got) != "prefix" {
				t.Errorf("failed AppendBinary of %v left %q", bad, got)
			}
		}
	}
}

// TestDecodeBinaryRejects: every prefix of a record, a record with a byte
// appended, and records edited field by field are errors, never panics.
func TestDecodeBinaryRejects(t *testing.T) {
	g := twoNodeGraph(1, 1)
	rec := appendBinary(t, g)
	if _, err := Decode(bytes.NewReader(rec)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(rec); n++ {
		if _, err := decodeBinary(rec[:n]); err == nil {
			t.Errorf("accepted the %d-byte prefix", n)
		}
	}
	if _, err := Decode(bytes.NewReader(append(rec[:len(rec):len(rec)], 0))); err == nil {
		t.Error("accepted a trailing byte")
	}
	// record follows its fields with the probabilities of twoNodeGraph.
	tail := rec[len(rec)-16:]
	record := func(fields ...byte) []byte {
		return append(append([]byte(nil), fields...), tail...)
	}
	// Levels 2, nodes 2, arcs 1, TL entries 2; widths 1 1; locations 1 2;
	// degrees 1 0; stays 0 3 (zig-zag 6); TL lengths 0 2; TL entries
	// (0,1) (0,4) zig-zagged; target 0.
	good := record(binaryFormat, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0)
	if !bytes.Equal(good, rec) {
		t.Fatalf("the test's record of twoNodeGraph is % x, AppendBinary writes % x", good, rec)
	}
	for name, bad := range map[string][]byte{
		"JSON version byte":     record(graphFormatVersion, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"unknown flag":          record(binaryFormat, 3, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"non-minimal uvarint":   record(binaryFormat, flagIdentity, 0x82, 0, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"zero levels":           record(binaryFormat, flagIdentity, 0, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"empty level":           record(binaryFormat, flagIdentity, 2, 2, 1, 2, 0, 2, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"widths short of nodes": record(binaryFormat, flagIdentity, 2, 3, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 0, 0),
		"arc from the target":   record(binaryFormat, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 0, 1, 0, 6, 0, 2, 0, 2, 0, 8, 0),
		"target past the level": record(binaryFormat, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 2, 0, 2, 0, 8, 1),
		"TL lengths short":      record(binaryFormat, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 6, 0, 1, 0, 2, 0, 8, 0),
		"identity nobody has":   record(binaryFormat, flagIdentity, 2, 2, 1, 0, 1, 1, 1, 2, 1, 0, 0, 0, 0, 0, 0),
		"stay past int32":       record(binaryFormat, flagIdentity, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 2, 0, 2, 0, 8, 0),
		"claims a billion arcs": record(binaryFormat, 0, 2, 2, 0x80, 0x94, 0xeb, 0xdc, 0x03),
	} {
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted % x", name, bad)
		}
	}
	// Probabilities that have no JSON form, or break the invariants.
	for _, p := range []float64{math.NaN(), math.Inf(1), 0.5} {
		bad := bytes.Clone(rec)
		binary.LittleEndian.PutUint64(bad[len(bad)-8:], math.Float64bits(p))
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("accepted the arc probability %v", p)
		}
	}
}

// TestDecodeSniffsJSON: JSON input, leading whitespace included, still takes
// the JSON path, a reader that cannot unread the sniffed byte reads both
// forms, and empty input is the JSON decoder's error.
func TestDecodeSniffsJSON(t *testing.T) {
	g := twoNodeGraph(1, 1)
	js := encoded(t, g)
	for _, in := range [][]byte{js, append([]byte(" \n"), js...), appendBinary(t, g)} {
		for _, r := range []io.Reader{bytes.NewReader(in), struct{ io.Reader }{bytes.NewReader(in)}} {
			if back, err := Decode(r); err != nil {
				t.Errorf("%q from a %T: %v", in[:4], r, err)
			} else if !bytes.Equal(encoded(t, back), js) {
				t.Errorf("%q from a %T: decoded another graph", in[:4], r)
			}
		}
	}
	if _, err := Decode(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Errorf("empty input: %v", err)
	}
}
