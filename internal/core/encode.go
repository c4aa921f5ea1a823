package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The serialized ct-graph format. Cleaning is often done once and queried
// many times (the paper's §5 remark casts ct-graphs as Markovian streams to
// be warehoused); Encode/Decode let a cleaned graph be stored and reloaded
// without re-running Algorithm 1.
type graphJSON struct {
	Version  int        `json:"version"`
	Duration int        `json:"duration"`
	Nodes    []nodeJSON `json:"nodes"`
	Edges    []edgeJSON `json:"edges"`
}

type nodeJSON struct {
	Time int       `json:"time"`
	Loc  int       `json:"loc"`
	Stay int       `json:"stay,omitempty"`
	TL   []TLEntry `json:"tl,omitempty"`
	Prob float64   `json:"prob,omitempty"` // p_N for source nodes
}

type edgeJSON struct {
	From int     `json:"from"` // index into Nodes
	To   int     `json:"to"`
	P    float64 `json:"p"`
}

const graphFormatVersion = 1

// Encode writes the graph as JSON: exactly the bytes json.NewEncoder(w)
// writes for the graphJSON view of g, trailing newline included. The bytes
// are appended by hand straight from the levels, with no intermediate copy
// and no reflection, because the persister encodes every stored graph. When
// w is a *bytes.Buffer the JSON is appended into its spare capacity, grown
// once up front.
func (g *Graph) Encode(w io.Writer) error {
	var dst []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(g.jsonSizeHint())
		dst = buf.AvailableBuffer()
	} else {
		dst = make([]byte, 0, g.jsonSizeHint())
	}
	b, err := g.appendJSON(dst)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// jsonSizeHint is a slight over-estimate of the encoding's length from the
// graph's counts: typical graphs take about 30 bytes a node, 45 an edge and
// 22 a TL entry. Sizing the destination from it spares encoding into an
// empty buffer a chain of doublings and their copies.
func (g *Graph) jsonSizeHint() int {
	size := 64
	for _, level := range g.byTime {
		for _, n := range level {
			size += 32 + 24*len(n.TL) + 48*len(n.out)
		}
	}
	return size
}

// appendJSON appends the graphJSON encoding of g to b, field for field in
// the struct's order and with its omitempty rules. Nodes are serialized
// level by level in index order, so a node's global position is its level
// offset plus its dense per-level index.
func (g *Graph) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, graphFormatVersion, 10)
	b = append(b, `,"duration":`...)
	b = strconv.AppendInt(b, int64(g.Duration()), 10)
	b = append(b, `,"nodes":`...)
	open := len(b)
	for _, level := range g.byTime {
		for _, n := range level {
			b = append(b, `,{"time":`...)
			b = strconv.AppendInt(b, int64(n.Time), 10)
			b = append(b, `,"loc":`...)
			b = strconv.AppendInt(b, int64(n.Loc), 10)
			if n.Stay != 0 {
				b = append(b, `,"stay":`...)
				b = strconv.AppendInt(b, int64(n.Stay), 10)
			}
			if len(n.TL) > 0 {
				b = append(b, `,"tl":[`...)
				for i, e := range n.TL {
					if i > 0 {
						b = append(b, ',')
					}
					b = append(b, `{"Time":`...)
					b = strconv.AppendInt(b, int64(e.Time), 10)
					b = append(b, `,"Loc":`...)
					b = strconv.AppendInt(b, int64(e.Loc), 10)
					b = append(b, '}')
				}
				b = append(b, ']')
			}
			if n.prob != 0 {
				b = append(b, `,"prob":`...)
				if b, err = appendFloat(b, n.prob); err != nil {
					return nil, err
				}
			}
			b = append(b, '}')
		}
	}
	b = closeArray(b, open)
	b = append(b, `,"edges":`...)
	open = len(b)
	off := 0
	for _, level := range g.byTime {
		next := off + len(level)
		for _, n := range level {
			for _, e := range n.out {
				b = append(b, `,{"from":`...)
				b = strconv.AppendInt(b, int64(off+int(e.From.idx)), 10)
				b = append(b, `,"to":`...)
				b = strconv.AppendInt(b, int64(next+int(e.To.idx)), 10)
				b = append(b, `,"p":`...)
				if b, err = appendFloat(b, e.P); err != nil {
					return nil, err
				}
				b = append(b, '}')
			}
		}
		off = next
	}
	b = closeArray(b, open)
	return append(b, "}\n"...), nil
}

// closeArray finishes an array whose elements were each appended after a
// comma, starting at b[open]: the first comma becomes the opening bracket,
// and an empty array is written as null, as encoding/json writes a nil
// slice.
func closeArray(b []byte, open int) []byte {
	if len(b) == open {
		return append(b, "null"...)
	}
	b[open] = '['
	return append(b, ']')
}

// appendFloat appends f the way encoding/json writes a float64: the
// shortest 'f' form, or 'e' form outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. NaN and the infinities have no JSON form.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("core: encoding ct-graph: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Decode reads a graph written by Encode and rebuilds its adjacency.
func Decode(r io.Reader) (*Graph, error) {
	var in graphJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding ct-graph: %w", err)
	}
	if in.Version != graphFormatVersion {
		return nil, fmt.Errorf("core: unsupported ct-graph format version %d", in.Version)
	}
	// Every level holds at least one node, so a duration beyond the node
	// count is malformed; rejecting it first bounds the level table by the
	// input size instead of by an attacker-chosen integer.
	if in.Duration <= 0 || in.Duration > len(in.Nodes) {
		return nil, fmt.Errorf("core: decoded graph has duration %d with %d nodes", in.Duration, len(in.Nodes))
	}
	g := &Graph{byTime: make([][]*node, in.Duration)}
	nodes := make([]*node, len(in.Nodes))
	for i, nj := range in.Nodes {
		if nj.Time < 0 || nj.Time >= in.Duration {
			return nil, fmt.Errorf("core: node %d has timestamp %d outside [0, %d)", i, nj.Time, in.Duration)
		}
		if nj.Loc < 0 {
			return nil, fmt.Errorf("core: node %d has negative location ID %d", i, nj.Loc)
		}
		n := &node{Time: nj.Time, Loc: nj.Loc, Stay: nj.Stay, TL: nj.TL, prob: nj.Prob}
		n.idx = int32(len(g.byTime[nj.Time]))
		nodes[i] = n
		g.byTime[nj.Time] = append(g.byTime[nj.Time], n)
	}
	for i, ej := range in.Edges {
		if ej.From < 0 || ej.From >= len(nodes) || ej.To < 0 || ej.To >= len(nodes) {
			return nil, fmt.Errorf("core: edge %d references unknown node", i)
		}
		from, to := nodes[ej.From], nodes[ej.To]
		if to.Time != from.Time+1 {
			return nil, fmt.Errorf("core: edge %d does not connect consecutive timestamps", i)
		}
		e := &edge{From: from, To: to, P: ej.P}
		from.out = append(from.out, e)
		to.in = append(to.in, e)
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		return nil, fmt.Errorf("core: decoded graph is not well-formed: %w", err)
	}
	return g, nil
}
