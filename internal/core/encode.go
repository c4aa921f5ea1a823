package core

import (
	"bufio"
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
	return 64 + 32*len(g.loc) + 24*len(g.tl) + 48*len(g.to)
}

// appendJSON appends the graphJSON encoding of g to b, field for field in
// the struct's order and with its omitempty rules. Nodes are serialized in
// their frozen order, level by level, so a node's position in the JSON is
// its node number.
func (g *Graph) appendJSON(b []byte) ([]byte, error) {
	var err error
	d := g.Duration()
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, graphFormatVersion, 10)
	b = append(b, `,"duration":`...)
	b = strconv.AppendInt(b, int64(d), 10)
	b = append(b, `,"nodes":`...)
	open := len(b)
	for t := 0; t < d; t++ {
		for n := g.levelOff[t]; n < g.levelOff[t+1]; n++ {
			b = append(b, `,{"time":`...)
			b = strconv.AppendInt(b, int64(t), 10)
			b = append(b, `,"loc":`...)
			b = strconv.AppendInt(b, int64(g.loc[n]), 10)
			if len(g.stay) > 0 && g.stay[n] != 0 {
				b = append(b, `,"stay":`...)
				b = strconv.AppendInt(b, int64(g.stay[n]), 10)
			}
			if len(g.tlOff) > 0 && g.tlOff[n] < g.tlOff[n+1] {
				b = append(b, `,"tl":[`...)
				for i, e := range g.tl[g.tlOff[n]:g.tlOff[n+1]] {
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
			if t == 0 && g.src[n] != 0 {
				b = append(b, `,"prob":`...)
				if b, err = appendFloat(b, g.src[n]); err != nil {
					return nil, err
				}
			}
			b = append(b, '}')
		}
	}
	b = closeArray(b, open)
	b = append(b, `,"edges":`...)
	open = len(b)
	for t := 0; t+1 < d; t++ {
		next := int64(g.levelOff[t+1])
		for n := g.levelOff[t]; n < g.levelOff[t+1]; n++ {
			for a := g.arcOff[n]; a < g.arcOff[n+1]; a++ {
				b = append(b, `,{"from":`...)
				b = strconv.AppendInt(b, int64(n), 10)
				b = append(b, `,"to":`...)
				b = strconv.AppendInt(b, next+int64(g.to[a]), 10)
				b = append(b, `,"p":`...)
				if b, err = appendFloat(b, g.p[a]); err != nil {
					return nil, err
				}
				b = append(b, '}')
			}
		}
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

// Decode reads a graph written by Encode or AppendBinary into the frozen
// layout, telling the two apart by the first byte. Nodes keep their order of
// appearance within their level, and arcs their order of appearance within
// their source node.
func Decode(r io.Reader) (*Graph, error) {
	br, ok := r.(byteScanReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	if first, err := br.ReadByte(); err == nil {
		if first == binaryFormat {
			var buf bytes.Buffer
			if l, ok := br.(interface{ Len() int }); ok {
				buf.Grow(1 + l.Len() + bytes.MinRead)
			}
			buf.WriteByte(binaryFormat)
			if _, err := buf.ReadFrom(br); err != nil {
				return nil, fmt.Errorf("core: decoding ct-graph: %w", err)
			}
			return decodeBinary(buf.Bytes())
		}
		if err := br.UnreadByte(); err != nil {
			return nil, fmt.Errorf("core: decoding ct-graph: %w", err)
		}
	}
	// An empty or failing r reaches the JSON decoder, which reports it.
	return decodeJSON(br)
}

// byteScanReader is a reader that can give back the byte Decode sniffs, as
// a *bytes.Reader, a *strings.Reader and a *bufio.Reader can.
type byteScanReader interface {
	io.Reader
	io.ByteScanner
}

// decodeJSON reads a graph written by Encode.
func decodeJSON(r io.Reader) (*Graph, error) {
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
	s := shape{levels: in.Duration, nodes: len(in.Nodes), arcs: len(in.Edges)}
	// perLevel[t+1] counts level t's nodes; num[i] becomes JSON node i's
	// dense index within its level.
	perLevel := make([]int32, in.Duration+1)
	num := make([]int32, len(in.Nodes))
	for i, nj := range in.Nodes {
		switch {
		case nj.Time < 0 || nj.Time >= in.Duration:
			return nil, fmt.Errorf("core: node %d has timestamp %d outside [0, %d)", i, nj.Time, in.Duration)
		case nj.Loc < 0 || nj.Loc > math.MaxInt32:
			return nil, fmt.Errorf("core: node %d has location ID %d outside [0, %d]", i, nj.Loc, math.MaxInt32)
		case nj.Stay < math.MinInt32 || nj.Stay > math.MaxInt32:
			return nil, fmt.Errorf("core: node %d has stay counter %d outside the int32 range", i, nj.Stay)
		case nj.Prob != 0 && nj.Time != 0:
			return nil, fmt.Errorf("core: node %d at timestamp %d has a source probability", i, nj.Time)
		}
		num[i] = perLevel[nj.Time+1]
		perLevel[nj.Time+1]++
		s.tls += len(nj.TL)
		s.ident = s.ident || nj.Stay != 0 || len(nj.TL) > 0
	}
	s.sources = int(perLevel[1])
	g := newGraph(s)
	for t := 0; t < in.Duration; t++ {
		g.levelOff[t+1] = g.levelOff[t] + perLevel[t+1]
	}
	// node maps JSON node i to its node number.
	node := func(i int) int32 { return g.levelOff[in.Nodes[i].Time] + num[i] }
	for i := range in.Edges {
		ej := &in.Edges[i]
		if ej.From < 0 || ej.From >= len(in.Nodes) || ej.To < 0 || ej.To >= len(in.Nodes) {
			return nil, fmt.Errorf("core: edge %d references unknown node", i)
		}
		if in.Nodes[ej.To].Time != in.Nodes[ej.From].Time+1 {
			return nil, fmt.Errorf("core: edge %d does not connect consecutive timestamps", i)
		}
		g.arcOff[node(ej.From)+1]++
	}
	for n := 0; n < s.nodes; n++ {
		g.arcOff[n+1] += g.arcOff[n]
	}
	// next[n] is where node n's next arc goes.
	next := make([]int32, s.nodes)
	copy(next, g.arcOff)
	for _, ej := range in.Edges {
		n := node(ej.From)
		a := next[n]
		next[n]++
		g.to[a], g.p[a] = num[ej.To], ej.P
	}
	for i, nj := range in.Nodes {
		n := node(i)
		g.loc[n] = int32(nj.Loc)
		if nj.Time == 0 {
			g.src[n] = nj.Prob
		}
		if s.ident {
			g.stay[n] = int32(nj.Stay)
			g.tlOff[n+1] = int32(len(nj.TL))
		}
	}
	if s.ident {
		for n := 0; n < s.nodes; n++ {
			g.tlOff[n+1] += g.tlOff[n]
		}
		for i, nj := range in.Nodes {
			copy(g.tl[g.tlOff[node(i)]:], nj.TL)
		}
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		return nil, fmt.Errorf("core: decoded graph is not well-formed: %w", err)
	}
	return g, nil
}
