package core

import (
	"encoding/json"
	"fmt"
	"io"
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

// Encode writes the graph as JSON.
func (g *Graph) Encode(w io.Writer) error {
	out := graphJSON{Version: graphFormatVersion, Duration: g.Duration()}
	// Nodes are serialized level by level in index order, so a node's global
	// position is its level offset plus its dense per-level index.
	offsets := make([]int, g.Duration())
	for t := 0; t < g.Duration(); t++ {
		if t > 0 {
			offsets[t] = offsets[t-1] + len(g.byTime[t-1])
		}
		for _, n := range g.byTime[t] {
			out.Nodes = append(out.Nodes, nodeJSON{
				Time: n.Time, Loc: n.Loc, Stay: n.Stay, TL: n.TL, Prob: n.prob,
			})
		}
	}
	for t := 0; t < g.Duration(); t++ {
		for _, n := range g.byTime[t] {
			for _, e := range n.out {
				out.Edges = append(out.Edges, edgeJSON{
					From: offsets[t] + int(e.From.idx), To: offsets[t+1] + int(e.To.idx), P: e.P,
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(&out)
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
	g := &Graph{byTime: make([][]*Node, in.Duration)}
	nodes := make([]*Node, len(in.Nodes))
	for i, nj := range in.Nodes {
		if nj.Time < 0 || nj.Time >= in.Duration {
			return nil, fmt.Errorf("core: node %d has timestamp %d outside [0, %d)", i, nj.Time, in.Duration)
		}
		n := &Node{Time: nj.Time, Loc: nj.Loc, Stay: nj.Stay, TL: nj.TL, prob: nj.Prob}
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
		e := &Edge{From: from, To: to, P: ej.P}
		from.out = append(from.out, e)
		to.in = append(to.in, e)
	}
	if err := g.CheckInvariants(1e-6); err != nil {
		return nil, fmt.Errorf("core: decoded graph is not well-formed: %w", err)
	}
	return g, nil
}
