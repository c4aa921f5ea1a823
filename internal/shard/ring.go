// Package shard turns a set of independent rfidcleand worker processes into
// one sharded query head. It provides the three building blocks of
// cmd/rfidcleand's router mode:
//
//   - Ring: a consistent-hash ring that places *new* work (cleans keyed by
//     tag or body, stream opens keyed by tag) on a shard.
//   - Client: a per-shard HTTP client with request timeouts and bounded
//     retry on connection-level errors.
//   - Router: the http.Handler that fronts the workers — forwarding
//     id-addressed traffic to the owning shard, scatter-gathering
//     cross-shard reads, replicating deployment registration/deletion, and
//     surfacing a per-shard health view at /healthz and /metrics.
//
// The placement contract has two halves. New resources are placed by the
// ring; but once a worker has minted an id, the id itself names its owner:
// workers run with shard-scoped id namespaces (internal/server's
// ShardCount/ShardIndex options), minting only ids congruent to their index
// mod the shard count, so the router resolves any existing trajectory,
// session or batch slot to its shard by the id's numeric residue alone — no
// routing table, no shared state, and no cross-shard id collisions by
// construction.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/server"
)

// defaultVnodes is how many virtual nodes each shard contributes to the
// ring. 128 points per shard keeps the expected load imbalance across a
// handful of shards in the low single-digit percent range while the ring
// stays a few KB.
const defaultVnodes = 128

// Ring is a consistent-hash ring over shard indices [0, n). Lookup cost is
// one 64-bit FNV-1a hash plus a binary search; the ring is immutable after
// construction and safe for concurrent use.
type Ring struct {
	n      int
	hashes []uint64 // sorted vnode positions
	owners []int    // owners[i] is the shard owning hashes[i]
}

// NewRing builds a ring of n shards with vnodes virtual nodes per shard
// (<= 0 uses the default). n must be >= 1.
func NewRing(n, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	type point struct {
		h     uint64
		owner int
	}
	points := make([]point, 0, n*vnodes)
	for shard := 0; shard < n; shard++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{
				h:     hash64("vnode\x00" + strconv.Itoa(shard) + "\x00" + strconv.Itoa(v)),
				owner: shard,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].h < points[j].h })
	r := &Ring{n: n, hashes: make([]uint64, len(points)), owners: make([]int, len(points))}
	for i, p := range points {
		r.hashes[i] = p.h
		r.owners[i] = p.owner
	}
	return r
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.n }

// Lookup returns the shard owning key: the owner of the first vnode at or
// after the key's hash, wrapping at the top of the ring.
func (r *Ring) Lookup(key string) int {
	if r.n == 1 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	// FNV-1a alone clusters on short, similar keys (vnode labels differ in
	// a couple of trailing digits), which skews the ring badly; a
	// splitmix64-style finisher restores avalanche so vnode positions
	// spread uniformly.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OwnerOfID resolves an existing resource id ("t42", "s7") to its shard
// under n shard-scoped id namespaces: the worker that minted the id is the
// one whose index matches the id's numeric residue mod n. ok is false for
// ids without a numeric suffix or whose prefix does not match.
func OwnerOfID(prefix, id string, n int) (int, bool) {
	p, num, ok := server.SplitID(id)
	if !ok || p != prefix || n < 1 {
		return 0, false
	}
	return num % n, true
}
