package server

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	rfidclean "repro"
)

// trajStore holds the cleaned trajectory graphs the query head serves. It is
// the one piece of mutable shared state on the hot path, so it gets its own
// RWMutex: GET queries take only read locks and run concurrently, while
// writes (store, delete, eviction) serialize.
//
// The store enforces an optional byte budget, charging each item what it
// retains (itemBytes: the frozen graph's exact bytes plus its explain
// report, and passBytes once a query has cached the forward/backward passes
// on it). Past the budget, the least-recently-queried graphs are evicted —
// the warehousing trade: a re-clean can always regenerate an evicted graph,
// but memory cannot grow without bound under heavy traffic. Recency is
// stamped with a lock-free logical clock so reads never upgrade to write
// locks; under a budget, a min-heap of stamps finds each victim in
// O(log n).
//
// When the server runs with a data directory, every mutation is mirrored to
// the persister's write-ahead log: stores enqueue "put" records, deletions
// and evictions enqueue "del" tombstones. persist is nil otherwise, keeping
// persistence entirely off the in-memory hot path.
type trajStore struct {
	maxBytes int64 // <= 0 means unlimited
	stride   int   // id-allocation stride (shard count; <= 1: single-node)
	offset   int   // this shard's residue class
	m        *serverMetrics
	persist  *persister  // nil when -data-dir is unset
	onEvict  func(n int) // flight-recorder storm detector; nil when disabled

	clock atomic.Int64 // logical access clock for LRU stamps

	mu    sync.RWMutex
	items map[string]*storeItem
	bytes int64
	next  int
	lru   lruHeap // under a budget: one entry per item, its stamp possibly stale
}

type storeItem struct {
	traj     *trajectory
	bytes    int64
	lastUsed atomic.Int64
}

func newTrajStore(maxBytes int64, stride, offset int, m *serverMetrics) *trajStore {
	return &trajStore{maxBytes: maxBytes, stride: stride, offset: offset, m: m, items: make(map[string]*storeItem)}
}

// addBatch stores every non-nil graph under a single critical section, so a
// batch's ids are consecutive and can never interleave with a concurrent
// single clean's. ids is positional; nil slots get "".
func (st *trajStore) addBatch(depID string, cs []*rfidclean.Cleaned) []string {
	ids := make([]string, len(cs))
	fresh := make(map[string]bool, len(cs))
	st.mu.Lock()
	for i, c := range cs {
		if c == nil {
			continue
		}
		st.next = nextStridedID(st.next, st.stride, st.offset)
		id := "t" + strconv.Itoa(st.next)
		st.insertLocked(&trajectory{id: id, depID: depID, cleaned: c})
		ids[i] = id
		fresh[id] = true
	}
	victims := st.evictLocked(fresh)
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	if st.persist != nil {
		for i, id := range ids {
			if id != "" {
				st.persist.put(id, depID, cs[i])
			}
		}
	}
	st.published(count, bytes, victims)
	return ids
}

// itemBytes is what the store charges for a stored clean: the graph's exact
// bytes (Stats().Bytes, which CleanResponse.Bytes also reports) plus the
// explain report the clean keeps, about a quarter of a 20-s quotient.
func itemBytes(c *rfidclean.Cleaned) int64 {
	b := int64(c.Stats().Bytes)
	if ex := c.Explain(); ex != nil {
		b += int64(unsafe.Sizeof(*ex)) + int64(cap(ex.Build.Steps))*int64(unsafe.Sizeof(rfidclean.ExplainStep{}))
	}
	return b
}

// passBytes is what a query engine's cached forward and backward passes
// retain: two node columns, one float64 per node each.
func passBytes(c *rfidclean.Cleaned) int64 {
	return 16 * int64(c.Stats().Nodes)
}

// chargePasses charges traj, once, for the passes a stay or occupancy query
// has just cached on it, and evicts past the budget; traj itself is exempt,
// as a fresh add is.
func (st *trajStore) chargePasses(traj *trajectory) {
	if traj.passesCharged.Load() {
		return
	}
	st.mu.Lock()
	it := st.items[traj.id]
	if it == nil || !traj.passesCharged.CompareAndSwap(false, true) {
		st.mu.Unlock()
		return
	}
	b := passBytes(traj.cleaned)
	it.bytes += b
	st.bytes += b
	victims := st.evictLocked(map[string]bool{traj.id: true})
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	st.published(count, bytes, victims)
}

// published reports a mutation made under the lock: it sets the store
// gauges, tells the storm detector how many items were evicted and
// tombstones them in the log.
func (st *trajStore) published(count int, bytes int64, victims []string) {
	st.m.storeCount.Set(int64(count))
	st.m.storeBytes.Set(bytes)
	if st.onEvict != nil {
		st.onEvict(len(victims))
	}
	if st.persist != nil {
		for _, v := range victims {
			st.persist.del(v)
		}
	}
}

// insertLocked stores traj under its id, stamped as just used.
func (st *trajStore) insertLocked(traj *trajectory) {
	it := &storeItem{traj: traj, bytes: itemBytes(traj.cleaned)}
	it.lastUsed.Store(st.clock.Add(1))
	st.items[traj.id] = it
	st.bytes += it.bytes
	if st.maxBytes <= 0 {
		return
	}
	st.lru.push(lruEntry{used: it.lastUsed.Load(), id: traj.id})
	// Deleted items leave their entries behind; rebuild before they
	// outnumber the live ones.
	if len(st.lru) > 2*len(st.items)+64 {
		st.lru = st.lru[:0]
		for id, it := range st.items {
			st.lru = append(st.lru, lruEntry{used: it.lastUsed.Load(), id: id})
		}
		st.lru.init()
	}
}

// evictLocked drops least-recently-used items until the store fits its
// budget, returning the evicted ids oldest first. Items stored by the
// current call are exempt, so a large batch is admitted whole (possibly
// overshooting the budget until the next add) rather than evicting itself.
//
// The heap's minimum is the victim once its stamp is current: every item
// has one entry, stamped no later than the item's last use, so a current
// minimum is older than every other item. A stale minimum (the item was
// read since) takes its current stamp and sinks, and an entry whose item is
// gone is dropped. Each victim costs O(log n).
func (st *trajStore) evictLocked(fresh map[string]bool) []string {
	if st.maxBytes <= 0 || st.bytes <= st.maxBytes {
		return nil
	}
	var victims []string
	var exempt []lruEntry
	for st.bytes > st.maxBytes && len(st.lru) > 0 {
		top := st.lru[0]
		it := st.items[top.id]
		if it == nil {
			st.lru.pop()
			continue
		}
		if used := it.lastUsed.Load(); used != top.used {
			st.lru[0].used = used
			st.lru.down(0)
			continue
		}
		st.lru.pop()
		if fresh[top.id] {
			exempt = append(exempt, top)
			continue
		}
		delete(st.items, top.id)
		st.bytes -= it.bytes
		st.m.storeEvictions.Inc()
		victims = append(victims, top.id)
	}
	for _, e := range exempt {
		st.lru.push(e)
	}
	return victims
}

// lruEntry is an item's place in the eviction heap: its id and its recency
// stamp when the entry was last set.
type lruEntry struct {
	used int64
	id   string
}

// lruHeap is a binary min-heap of entries by stamp.
type lruHeap []lruEntry

func (h *lruHeap) push(e lruEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes the minimum.
func (h *lruHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s[last] = lruEntry{}
	*h = s[:last]
	h.down(0)
}

func (h *lruHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h lruHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].used <= h[i].used {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h lruHeap) down(i int) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && h[l].used < h[least].used {
			least = l
		}
		if r := l + 1; r < len(h) && h[r].used < h[least].used {
			least = r
		}
		if least == i {
			return
		}
		h[least], h[i] = h[i], h[least]
		i = least
	}
}

// get returns the trajectory with the given id, or nil. It touches the LRU
// stamp without taking the write lock.
func (st *trajStore) get(id string) *trajectory {
	st.mu.RLock()
	it := st.items[id]
	st.mu.RUnlock()
	if it == nil {
		return nil
	}
	it.lastUsed.Store(st.clock.Add(1))
	return it.traj
}

// delete removes a trajectory, reporting whether it existed.
func (st *trajStore) delete(id string) bool {
	st.mu.Lock()
	it := st.items[id]
	if it != nil {
		delete(st.items, id)
		st.bytes -= it.bytes
	}
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	if it != nil {
		st.m.storeCount.Set(int64(count))
		st.m.storeBytes.Set(bytes)
		if st.persist != nil {
			st.persist.del(id)
		}
	}
	return it != nil
}

// deleteByDep removes every trajectory belonging to a deployment (used when
// the deployment itself is deleted), returning how many were dropped.
func (st *trajStore) deleteByDep(depID string) int {
	st.mu.Lock()
	var removed []string
	for id, it := range st.items {
		if it.traj.depID == depID {
			delete(st.items, id)
			st.bytes -= it.bytes
			removed = append(removed, id)
		}
	}
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	if len(removed) > 0 {
		st.m.storeCount.Set(int64(count))
		st.m.storeBytes.Set(bytes)
		if st.persist != nil {
			for _, id := range removed {
				st.persist.del(id)
			}
		}
	}
	return len(removed)
}

// stats reports the current item count and the bytes charged for them.
func (st *trajStore) stats() (count int, bytes int64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.items), st.bytes
}

// snapshot returns the live contents oldest-first (by recency stamp) plus
// the id counter — the compaction source. Graph encoding happens in the
// caller, outside the store lock.
func (st *trajStore) snapshot() ([]snapItem, int) {
	type stamped struct {
		item snapItem
		used int64
	}
	st.mu.RLock()
	out := make([]stamped, 0, len(st.items))
	for id, it := range st.items {
		out = append(out, stamped{
			item: snapItem{id: id, depID: it.traj.depID, c: it.traj.cleaned},
			used: it.lastUsed.Load(),
		})
	}
	next := st.next
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].used < out[j].used })
	items := make([]snapItem, len(out))
	for i, s := range out {
		items[i] = s.item
	}
	return items, next
}

// restore installs recovered trajectories (oldest first) at boot, then
// enforces the byte budget: past it the oldest recovered entries are dropped
// first, each counted as an eviction (and tombstoned, so a subsequent crash
// does not resurrect them). The id counter is forced to at least next so
// fresh ids never collide with recovered or tombstoned ones. It returns how
// many recovered items the budget dropped.
func (st *trajStore) restore(items []snapItem, next int) int {
	st.mu.Lock()
	for _, it := range items {
		st.insertLocked(&trajectory{id: it.id, depID: it.depID, cleaned: it.c})
	}
	if st.next < next {
		st.next = next
	}
	victims := st.evictLocked(nil)
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	st.published(count, bytes, victims) // onEvict attaches after recovery
	return len(victims)
}

// list returns one row per stored trajectory, ids in numeric order.
func (st *trajStore) list() []TrajectoryRow {
	st.mu.RLock()
	rows := make([]TrajectoryRow, 0, len(st.items))
	for id, it := range st.items {
		s := it.traj.cleaned.Stats()
		rows = append(rows, TrajectoryRow{
			ID: id, Deployment: it.traj.depID,
			Nodes: s.Nodes, Edges: s.Edges, Bytes: s.Bytes,
		})
	}
	st.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return IDLess(rows[i].ID, rows[j].ID) })
	return rows
}
