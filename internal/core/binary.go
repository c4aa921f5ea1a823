package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The binary ct-graph record: the frozen columns written as they are, for
// the server's write-ahead log and snapshots, where a graph is written once
// per clean and read back only on recovery. JSON (Encode) stays the export
// format; Decode reads either, told apart by the first byte. All integers
// are minimal uvarints (varints, zig-zag, where a value may be negative):
//
//	byte    binaryFormat   no JSON text starts with it
//	byte    flags          bit 0: the node identity columns follow
//	uvarint T, N, A        levels, nodes, arcs
//	uvarint L              TL entries (identity only)
//	T       uvarint        width of each level
//	N       uvarint        location of each node, in node order
//	N       uvarint        out-degree of each node
//	N       varint         δ of each node (identity only)
//	N       uvarint        TL length of each node (identity only)
//	L       varint, varint time and location of each TL entry (identity only)
//	A       uvarint        each arc's target, a dense index in the next level
//	W0+A    8 bytes        p_N of each source, then p_E of each arc: the
//	                       float64 bits, little-endian
//
// Probabilities are stored as their bits, not as decimal text: nothing is
// formatted or parsed, and the value read back is the value written, so a
// recovered graph answers exactly as the stored one did. Every field has
// one accepted form (identity is flagged only when some node has δ ≠ ⊥ or
// a TL entry, every count is checked against its column, no bytes may
// trail), so a record Decode accepts re-encodes to exactly its own bytes.

// binaryFormat is the first byte of a binary record. A JSON text starts with
// '{', '[', a quote, a digit, '-', a letter of a literal, or whitespace.
const binaryFormat = 0x02

// flagIdentity marks a record that carries the δ and TL columns.
const flagIdentity = 1

// AppendBinary appends the binary record of g to b and returns the extended
// slice. A non-finite probability has no record, as it has no JSON form:
// AppendBinary then returns b at its original length and an error.
func (g *Graph) AppendBinary(b []byte) ([]byte, error) {
	start := len(b)
	ident := g.hasIdentity()
	b = slices.Grow(b, g.binarySizeHint(ident))
	var flags byte
	if ident {
		flags = flagIdentity
	}
	b = append(b, binaryFormat, flags)
	b = binary.AppendUvarint(b, uint64(g.Duration()))
	b = binary.AppendUvarint(b, uint64(len(g.loc)))
	b = binary.AppendUvarint(b, uint64(len(g.to)))
	if ident {
		b = binary.AppendUvarint(b, uint64(len(g.tl)))
	}
	for t := 0; t < g.Duration(); t++ {
		b = binary.AppendUvarint(b, uint64(g.levelOff[t+1]-g.levelOff[t]))
	}
	for _, l := range g.loc {
		b = binary.AppendUvarint(b, uint64(int64(l)))
	}
	for n := range g.loc {
		b = binary.AppendUvarint(b, uint64(g.arcOff[n+1]-g.arcOff[n]))
	}
	if ident {
		for _, s := range g.stay {
			b = binary.AppendVarint(b, int64(s))
		}
		for n := range g.loc {
			b = binary.AppendUvarint(b, uint64(g.tlOff[n+1]-g.tlOff[n]))
		}
		for _, e := range g.tl {
			b = binary.AppendVarint(b, int64(e.Time))
			b = binary.AppendVarint(b, int64(e.Loc))
		}
	}
	for _, to := range g.to {
		b = binary.AppendUvarint(b, uint64(to))
	}
	for _, col := range [...][]float64{g.src, g.p} {
		for _, f := range col {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return b[:start], fmt.Errorf("core: encoding ct-graph: unsupported value %v", f)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b, nil
}

// hasIdentity reports whether some node of g has δ ≠ ⊥ or a TL entry: the
// graphs whose records carry the identity columns, as the graphs whose JSON
// names a stay or a TL.
func (g *Graph) hasIdentity() bool {
	return len(g.tl) > 0 || slices.ContainsFunc(g.stay, func(s int32) bool { return s != StayUntracked })
}

// binarySizeHint over-estimates the record's length for typical graphs:
// two-byte widths, locations and targets, one-byte degrees, and eight bytes
// a probability.
func (g *Graph) binarySizeHint(ident bool) int {
	n := 32 + 2*g.Duration() + 3*len(g.loc) + 10*len(g.to) + 8*len(g.src)
	if ident {
		n += 4*len(g.loc) + 6*len(g.tl)
	}
	return n
}

var errTruncated = errors.New("core: binary ct-graph record is truncated or has a non-minimal integer")

// recordReader reads a binary record front to back. The first failure
// sticks: later reads return 0, and decodeBinary reports err.
type recordReader struct {
	b   []byte
	err error
}

// uvarint reads a minimal uvarint: a longer encoding of the same value would
// end in a zero byte, and would not re-encode to the bytes it was read from.
func (r *recordReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 || r.b[k-1] == 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[k:]
	return v
}

// varint reads a minimal zig-zag varint.
func (r *recordReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a uvarint that counts elements of at least per bytes each,
// which the rest of the record must hold: every column is then sized by the
// input, never by an integer the input merely claims.
func (r *recordReader) count(what string, per int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)/per) {
		r.fail(fmt.Errorf("core: binary ct-graph record claims %d %s in %d bytes", v, what, len(r.b)))
		return 0
	}
	return int(v)
}

func (r *recordReader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// decodeBinary reads a record written by AppendBinary. It checks what the
// JSON decoder checks, that the record is in its one accepted form, and
// then the ct-graph invariants.
func decodeBinary(data []byte) (*Graph, error) {
	if len(data) < 2 || data[0] != binaryFormat || data[1]&^flagIdentity != 0 {
		return nil, errors.New("core: malformed binary ct-graph record header")
	}
	ident := data[1] == flagIdentity
	r := &recordReader{b: data[2:]}
	var s shape
	s.ident = ident
	s.levels = r.count("levels", 1)
	s.nodes = r.count("nodes", 2)
	s.arcs = r.count("arcs", 9)
	if ident {
		s.tls = r.count("TL entries", 2)
	}
	if r.err != nil {
		return nil, r.err
	}
	// Every level holds at least one node, as in Decode's JSON path.
	if s.levels == 0 || s.levels > s.nodes || s.nodes > math.MaxInt32 {
		return nil, fmt.Errorf("core: decoded graph has duration %d with %d nodes", s.levels, s.nodes)
	}
	// The first width sizes the source column, so it is read before the
	// graph is allocated.
	w0 := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if w0 == 0 || w0 > uint64(s.nodes) {
		return nil, fmt.Errorf("core: level 0 has width %d of %d nodes", w0, s.nodes)
	}
	s.sources = int(w0)
	g := newGraph(s)
	g.levelOff[1] = int32(w0)
	for t := 1; t < s.levels && r.err == nil; t++ {
		w := r.uvarint()
		if w == 0 || w > uint64(s.nodes)-uint64(g.levelOff[t]) {
			r.fail(fmt.Errorf("core: level %d has width %d, past the %d nodes", t, w, s.nodes))
		}
		g.levelOff[t+1] = g.levelOff[t] + int32(w)
	}
	if r.err == nil && int(g.levelOff[s.levels]) != s.nodes {
		r.fail(fmt.Errorf("core: level widths sum to %d, not %d nodes", g.levelOff[s.levels], s.nodes))
	}
	for n := 0; n < s.nodes && r.err == nil; n++ {
		l := r.uvarint()
		if l > math.MaxInt32 {
			r.fail(fmt.Errorf("core: node %d has location ID %d outside [0, %d]", n, l, math.MaxInt32))
		}
		g.loc[n] = int32(l)
	}
	for n := 0; n < s.nodes && r.err == nil; n++ {
		d := r.uvarint()
		if d > uint64(s.arcs)-uint64(g.arcOff[n]) {
			r.fail(fmt.Errorf("core: out-degrees pass the %d arcs at node %d", s.arcs, n))
		}
		g.arcOff[n+1] = g.arcOff[n] + int32(d)
	}
	// The last level's nodes are targets; the record names no level after
	// it for their arcs to lead to.
	if r.err == nil && (int(g.arcOff[g.levelOff[s.levels-1]]) != s.arcs || int(g.arcOff[s.nodes]) != s.arcs) {
		r.fail(fmt.Errorf("core: out-degrees do not place the %d arcs before the last level", s.arcs))
	}
	if ident {
		decodeIdentity(r, g, s)
	}
	for t := 0; t+1 < s.levels && r.err == nil; t++ {
		width := uint64(g.levelOff[t+2] - g.levelOff[t+1])
		for a := g.arcOff[g.levelOff[t]]; a < g.arcOff[g.levelOff[t+1]]; a++ {
			to := r.uvarint()
			if to >= width {
				r.fail(fmt.Errorf("core: arc %d leads to node %d of a %d-node level", a, to, width))
				break
			}
			g.to[a] = int32(to)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 8*(s.sources+s.arcs) {
		return nil, fmt.Errorf("core: binary ct-graph record ends with %d bytes for %d probabilities", len(r.b), s.sources+s.arcs)
	}
	for _, col := range [...][]float64{g.src, g.p} {
		for i := range col {
			f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, fmt.Errorf("core: binary ct-graph record holds the probability %v", f)
			}
			col[i] = f
			r.b = r.b[8:]
		}
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		return nil, fmt.Errorf("core: decoded graph is not well-formed: %w", err)
	}
	return g, nil
}

// decodeIdentity reads the δ and TL columns of a record flagged with node
// identity, which some node must then have, as Decode's JSON path keeps
// the columns only for such a graph.
func decodeIdentity(r *recordReader, g *Graph, s shape) {
	some := s.tls > 0
	for n := 0; n < s.nodes && r.err == nil; n++ {
		d := r.varint()
		if d < math.MinInt32 || d > math.MaxInt32 {
			r.fail(fmt.Errorf("core: node %d has stay counter %d outside the int32 range", n, d))
		}
		g.stay[n] = int32(d)
		some = some || d != StayUntracked
	}
	for n := 0; n < s.nodes && r.err == nil; n++ {
		k := r.uvarint()
		if k > uint64(s.tls)-uint64(g.tlOff[n]) {
			r.fail(fmt.Errorf("core: TL lengths pass the %d entries at node %d", s.tls, n))
		}
		g.tlOff[n+1] = g.tlOff[n] + int32(k)
	}
	if r.err == nil && int(g.tlOff[s.nodes]) != s.tls {
		r.fail(fmt.Errorf("core: TL lengths sum to %d, not %d entries", g.tlOff[s.nodes], s.tls))
	}
	for i := 0; i < s.tls && r.err == nil; i++ {
		g.tl[i] = TLEntry{Time: int(r.varint()), Loc: int(r.varint())}
	}
	if r.err == nil && !some {
		r.fail(errors.New("core: binary ct-graph record flags node identity that no node has"))
	}
}
