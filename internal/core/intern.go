package core

import (
	"math"
	"slices"
)

// tlID identifies an interned, canonical TL slice. ID 0 is the empty TL.
type tlID int32

// tlInterner assigns dense integer IDs to TL slices so that node identity can
// be a comparable value type (see nodeKey) and all nodes sharing a TL history
// share one immutable run of the interner's TL column. A TL slice is
// interned link by link: each link is a previously interned prefix extended
// by one entry, keyed in links as (prefix, loc, time). Because TL slices are
// kept sorted, two slices intern to the same ID exactly when they are
// element-wise equal. The column is append-only until reset, so a span of it
// stays valid across rebuilds.
type tlInterner struct {
	links keyTable  // link (prefix, entry) -> its ID − 1
	seqs  []tlSpan  // seqs[id] is the canonical span for id; seqs[0] is empty
	tl    []TLEntry // every canonical slice, each a run of entries
}

// tlSpan is a canonical TL slice: n entries of the interner's column from
// off.
type tlSpan struct{ off, n int32 }

func newTLInterner() *tlInterner {
	return &tlInterner{seqs: []tlSpan{{}}}
}

// size returns the number of interned chain links (a proxy for memory use).
func (in *tlInterner) size() int { return len(in.links.keys) }

// rebuild forgets every ID, in O(1) for the index. The canonical spans stay
// valid: the column is not reused until reset.
func (in *tlInterner) rebuild() {
	in.links.reset()
	in.seqs = append(trim(in.seqs), tlSpan{})
}

// reset forgets every ID and span, so the column is reused; no span the
// interner handed out may be used afterwards.
func (in *tlInterner) reset() {
	in.rebuild()
	in.links.trim()
	in.tl = trim(in.tl)
}

// intern returns the ID of tl, registering it if new. tl must be sorted. The
// canonical copy is made on first sight, so callers may keep reusing tl's
// backing array as scratch space.
func (in *tlInterner) intern(tl []TLEntry) tlID {
	id := tlID(0)
	for i, e := range tl {
		// A TL entry's location is a node's, so it fits 32 bits.
		j, added := in.links.id(tableKey{hi: uint64(uint32(id))<<32 | uint64(uint32(e.Loc)), lo: uint64(e.Time)})
		if added {
			// The new sequence is a copy of the canonical prefix of
			// length i plus e, so no later append changes it.
			off := int32(len(in.tl))
			in.tl = append(in.tl, in.entries(in.seqs[id])...)
			in.tl = append(in.tl, e)
			in.seqs = append(in.seqs, tlSpan{off: off, n: int32(i + 1)})
		}
		id = tlID(j + 1)
	}
	return id
}

// span returns the canonical span for id.
func (in *tlInterner) span(id tlID) tlSpan { return in.seqs[id] }

// entries returns the entries of span s. Callers must not modify them.
func (in *tlInterner) entries(s tlSpan) []TLEntry {
	end := s.off + s.n
	return in.tl[s.off:end:end]
}

// nodeKey is the comparable identity of a location node within one timestamp:
// (l, δ, TL) with the TL slice replaced by its interned ID. Packed, it is the
// key of the forward kernel's per-level dedup table.
type nodeKey struct {
	loc  int32
	stay int32
	tl   tlID
}

func (k nodeKey) packed() tableKey {
	return tableKey{hi: uint64(uint32(k.loc))<<32 | uint64(uint32(k.stay)), lo: uint64(uint32(k.tl))}
}

// tableKey is a key of a keyTable: two words a caller packs its key into.
type tableKey struct{ hi, lo uint64 }

// keyTable assigns dense IDs, from 0 in first-sight order, to tableKeys: the
// forward kernel's per-level dedup (a successor's ID is its position in the
// level) and the TL interner's index. It is an open-addressing table with
// linear probing whose slots hold an ID into keys, which holds every key in
// ID order; hits are confirmed by comparing keys. A slot counts as empty
// unless it carries the table's current stamp, so reset forgets every key in
// O(1), however big the table grew, and the table keeps its slots for the
// next fill. It grows by doubling once it is half full, reinserting only the
// live keys.
type keyTable struct {
	slots []keySlot
	keys  []tableKey // keys[id] is the key with ID id
	stamp int32      // the stamp of the live slots; 0 only while there are no slots
}

type keySlot struct {
	id    int32
	stamp int32
}

// minTableSlots is the size of a table's first slots.
const minTableSlots = 16

// id returns the ID of key, assigning the next one when key is new; added
// reports whether it was.
func (t *keyTable) id(key tableKey) (id int32, added bool) {
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for s := key.hash() & mask; ; s = (s + 1) & mask {
		slot := &t.slots[s]
		if slot.stamp != t.stamp {
			id = int32(len(t.keys))
			*slot = keySlot{id: id, stamp: t.stamp}
			t.keys = append(t.keys, key)
			return id, true
		}
		if t.keys[slot.id] == key {
			return slot.id, false
		}
	}
}

// grow doubles the table into fresh slots and reinserts the live keys. keys
// grows with it, to the most keys the new slots take before the next grow.
func (t *keyTable) grow() {
	t.slots = make([]keySlot, max(2*len(t.slots), minTableSlots))
	t.keys = slices.Grow(t.keys, len(t.slots)/2-len(t.keys))
	t.stamp = 1
	mask := uint64(len(t.slots) - 1)
	for id, key := range t.keys {
		s := key.hash() & mask
		for t.slots[s].stamp == t.stamp {
			s = (s + 1) & mask
		}
		t.slots[s] = keySlot{id: int32(id), stamp: t.stamp}
	}
}

// reset forgets every key by moving to the next stamp. Once in 2^31 resets
// the stamp would overflow; then the slots are cleared and stamps restart
// from 1, so no slot filled before can carry a stamp of the new round.
func (t *keyTable) reset() {
	t.keys = t.keys[:0]
	if t.stamp == math.MaxInt32 {
		clear(t.slots)
		t.stamp = 0
	}
	t.stamp++
}

// trim drops t's storage once its slots are past keepNodes, so a table that
// served a wide build or a long stream does not stay that big in the pool.
func (t *keyTable) trim() {
	if len(t.slots) > keepNodes {
		*t = keyTable{}
	}
}

func (k tableKey) hash() uint64 { return mixKey(mixKey(0, k.hi), k.lo) }
