package core

import (
	"math"
	"slices"
)

// tlID identifies an interned, canonical TL slice. ID 0 is the empty TL.
type tlID int32

// tlInterner assigns dense integer IDs to TL slices so that node identity can
// be a comparable value type (see nodeKey) and all nodes sharing a TL history
// share one immutable backing array. A TL slice is interned link by link:
// each link is a previously interned prefix extended by one entry, keyed in
// links as (prefix, loc, time). Because TL slices are kept sorted, two slices
// intern to the same ID exactly when they are element-wise equal. The
// canonical slices are carved from fixed-size chunks the interner keeps
// across rebuilds and resets.
type tlInterner struct {
	links keyTable    // link (prefix, entry) -> its ID − 1
	seqs  [][]TLEntry // seqs[id] is the canonical slice for id; seqs[0] = nil

	arena slab[TLEntry]
}

func newTLInterner() *tlInterner {
	return &tlInterner{seqs: [][]TLEntry{nil}}
}

// size returns the number of interned chain links (a proxy for memory use).
func (in *tlInterner) size() int { return len(in.links.keys) }

// rebuild forgets every ID, in O(1) for the index. The canonical slices stay
// valid: their arena is not reused until reset.
func (in *tlInterner) rebuild() {
	in.links.reset()
	clear(in.seqs[1:])
	in.seqs = in.seqs[:1]
	if cap(in.seqs) > keepNodes {
		in.seqs = [][]TLEntry{nil}
	}
}

// reset forgets every ID and slice, so the arena is reused; no slice the
// interner handed out may be used afterwards. An index that grew past
// keepNodes slots is dropped.
func (in *tlInterner) reset() {
	in.rebuild()
	in.links.trim()
	in.arena.reset()
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
			// seqs[id] is the canonical prefix of length i; the new
			// sequence is a copy of it plus e, so it is immutable.
			seq := in.arena.carve(i + 1)
			copy(seq, in.seqs[id])
			seq[i] = e
			in.seqs = append(in.seqs, seq)
		}
		id = tlID(j + 1)
	}
	return id
}

// seq returns the canonical slice for id. Callers must not modify it.
func (in *tlInterner) seq(id tlID) []TLEntry { return in.seqs[id] }

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
