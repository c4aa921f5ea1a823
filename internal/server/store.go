package server

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	rfidclean "repro"
)

// trajStore holds the cleaned trajectory graphs the query head serves. It is
// the one piece of mutable shared state on the hot path, so it gets its own
// RWMutex: GET queries take only read locks and run concurrently, while
// writes (store, delete, eviction) serialize.
//
// The store enforces an optional byte budget using each graph's estimated
// footprint (Cleaned.Stats().Bytes). Past the budget, the least-recently-
// queried graphs are evicted — the warehousing trade: a re-clean can always
// regenerate an evicted graph, but memory cannot grow without bound under
// heavy traffic. Recency is stamped with a lock-free logical clock so reads
// never upgrade to write locks.
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
		it := &storeItem{
			traj:  &trajectory{id: id, depID: depID, cleaned: c},
			bytes: int64(c.Stats().Bytes),
		}
		it.lastUsed.Store(st.clock.Add(1))
		st.items[id] = it
		st.bytes += it.bytes
		ids[i] = id
		fresh[id] = true
	}
	victims := st.evictLocked(fresh)
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	st.m.storeCount.Set(int64(count))
	st.m.storeBytes.Set(bytes)
	if st.onEvict != nil {
		st.onEvict(len(victims))
	}
	if st.persist != nil {
		for i, id := range ids {
			if id != "" {
				st.persist.put(id, depID, cs[i])
			}
		}
		for _, v := range victims {
			st.persist.del(v)
		}
	}
	return ids
}

// evictLocked drops least-recently-used items until the store fits its
// budget, returning the evicted ids. Items stored by the current call are
// exempt, so a large batch is admitted whole (possibly overshooting the
// budget until the next add) rather than evicting itself.
//
// The map is scanned exactly once per call: eviction candidates are
// collected in a single pass and sorted by recency stamp, so evicting k
// items under pressure costs O(n log n) instead of the k full scans —
// O(k·n) — a per-victim search would.
func (st *trajStore) evictLocked(fresh map[string]bool) []string {
	if st.maxBytes <= 0 || st.bytes <= st.maxBytes {
		return nil
	}
	type candidate struct {
		id   string
		it   *storeItem
		used int64
	}
	cands := make([]candidate, 0, len(st.items))
	for id, it := range st.items {
		if fresh[id] {
			continue
		}
		cands = append(cands, candidate{id: id, it: it, used: it.lastUsed.Load()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })
	var victims []string
	for _, c := range cands {
		if st.bytes <= st.maxBytes {
			break
		}
		delete(st.items, c.id)
		st.bytes -= c.it.bytes
		st.m.storeEvictions.Inc()
		victims = append(victims, c.id)
	}
	return victims
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

// stats reports the current item count and estimated bytes.
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
		si := &storeItem{
			traj:  &trajectory{id: it.id, depID: it.depID, cleaned: it.c},
			bytes: int64(it.c.Stats().Bytes),
		}
		si.lastUsed.Store(st.clock.Add(1))
		st.items[it.id] = si
		st.bytes += si.bytes
	}
	if st.next < next {
		st.next = next
	}
	victims := st.evictLocked(nil)
	count, bytes := len(st.items), st.bytes
	st.mu.Unlock()
	st.m.storeCount.Set(int64(count))
	st.m.storeBytes.Set(bytes)
	if st.persist != nil {
		for _, v := range victims {
			st.persist.del(v)
		}
	}
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
