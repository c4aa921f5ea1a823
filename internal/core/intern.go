package core

// tlID identifies an interned, canonical TL slice. ID 0 is the empty TL.
type tlID int32

// tlChain keys one interning step: a previously interned prefix extended by
// one entry. Because TL slices are kept sorted, two slices intern to the same
// ID exactly when they are element-wise equal.
type tlChain struct {
	prefix tlID
	entry  TLEntry
}

// tlInterner assigns dense integer IDs to TL slices so that node identity can
// be a comparable value type (see nodeKey) and all nodes sharing a TL history
// share one immutable backing array. Interning replaces the per-successor
// string key the forward phase used to build for dedup, which dominated the
// allocation profile of Algorithm 1 on long windows. The canonical slices are
// carved from fixed-size chunks the interner keeps across rebuilds and
// resets.
type tlInterner struct {
	ids  map[tlChain]tlID
	seqs [][]TLEntry // seqs[id] is the canonical slice for id; seqs[0] = nil

	arena slab[TLEntry]
}

func newTLInterner() *tlInterner {
	return &tlInterner{ids: make(map[tlChain]tlID), seqs: [][]TLEntry{nil}}
}

// size returns the number of interned chain links (a proxy for memory use).
func (in *tlInterner) size() int { return len(in.ids) }

// rebuild forgets every ID. The canonical slices stay valid: their arena
// is not reused until reset. An index that grew past keepMapEntries is
// dropped rather than cleared.
func (in *tlInterner) rebuild() {
	if len(in.ids) > keepMapEntries {
		in.ids = make(map[tlChain]tlID)
	} else {
		clear(in.ids)
	}
	clear(in.seqs[1:])
	in.seqs = in.seqs[:1]
	if cap(in.seqs) > keepNodes {
		in.seqs = [][]TLEntry{nil}
	}
}

// reset forgets every ID and slice, so the arena is reused; no slice the
// interner handed out may be used afterwards.
func (in *tlInterner) reset() {
	in.rebuild()
	in.arena.reset()
}

// intern returns the ID of tl, registering it if new. tl must be sorted. The
// canonical copy is made on first sight, so callers may keep reusing tl's
// backing array as scratch space.
func (in *tlInterner) intern(tl []TLEntry) tlID {
	id := tlID(0)
	for i, e := range tl {
		key := tlChain{prefix: id, entry: e}
		next, ok := in.ids[key]
		if !ok {
			next = tlID(len(in.seqs))
			// seqs[id] is the canonical prefix of length i; the new
			// sequence is a copy of it plus e, so it is immutable.
			seq := in.arena.carve(i + 1)
			copy(seq, in.seqs[id])
			seq[i] = e
			in.seqs = append(in.seqs, seq)
			in.ids[key] = next
		}
		id = next
	}
	return id
}

// seq returns the canonical slice for id. Callers must not modify it.
func (in *tlInterner) seq(id tlID) []TLEntry { return in.seqs[id] }

// nodeKey is the comparable identity of a location node within one timestamp:
// (l, δ, TL) with the TL slice replaced by its interned ID. It is the map key
// of the forward kernel's per-level dedup, which previously built a string
// per candidate successor.
type nodeKey struct {
	loc  int32
	stay int32
	tl   tlID
}
