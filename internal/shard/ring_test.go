package shard

import (
	"fmt"
	"testing"

	"repro/internal/server"
)

// TestRingDeterministic: placement is a pure function of (key, shard count)
// — two rings built with the same parameters agree on every key, which is
// what lets a restarted router keep routing tags to the shards that hold
// their sessions' history.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 0)
	b := NewRing(5, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("tag\x00obj-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("ring lookup for %q differs between identically built rings", key)
		}
	}
}

// TestRingBalance: 128 vnodes per shard keeps the load split close enough
// to uniform that no shard sees more than ~2x its fair share over a large
// key population.
func TestRingBalance(t *testing.T) {
	const shards, keys = 4, 20000
	r := NewRing(shards, 0)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	fair := keys / shards
	for s, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("shard %d got %d of %d keys (fair share %d): imbalance beyond 2x", s, c, keys, fair)
		}
	}
}

// TestRingSingleShard: a one-shard ring sends everything to shard 0.
func TestRingSingleShard(t *testing.T) {
	r := NewRing(1, 0)
	for _, key := range []string{"", "a", "tag\x00x"} {
		if got := r.Lookup(key); got != 0 {
			t.Fatalf("Lookup(%q) = %d on a single-shard ring", key, got)
		}
	}
}

// TestRingStability: adding a shard moves only part of the keyspace — the
// consistent-hashing property. With 3 -> 4 shards roughly 1/4 of keys
// should move; assert well under half do.
func TestRingStability(t *testing.T) {
	const keys = 10000
	before, after := NewRing(3, 0), NewRing(4, 0)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if before.Lookup(key) != after.Lookup(key) {
			moved++
		}
	}
	if moved > keys/2 {
		t.Fatalf("%d of %d keys moved when growing 3 -> 4 shards; consistent hashing should move ~1/4", moved, keys)
	}
	if moved == 0 {
		t.Fatal("no keys moved when growing 3 -> 4 shards; the new shard owns nothing")
	}
}

func TestOwnerOfID(t *testing.T) {
	cases := []struct {
		prefix, id string
		n          int
		want       int
		ok         bool
	}{
		{"t", "t1", 3, 1, true},
		{"t", "t3", 3, 0, true},
		{"t", "t17", 3, 2, true},
		{"s", "s4", 2, 0, true},
		{"t", "s4", 3, 0, false}, // wrong prefix
		{"t", "t", 3, 0, false},  // no numeric suffix
		{"t", "tx", 3, 0, false},
		{"t", "t1", 0, 0, false}, // no shards
	}
	for _, c := range cases {
		got, ok := OwnerOfID(c.prefix, c.id, c.n)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("OwnerOfID(%q, %q, %d) = (%d, %v), want (%d, %v)", c.prefix, c.id, c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestIDLess: the merge order matches the worker's listing order, so a
// scatter-gathered listing reads like a single node's.
func TestIDLess(t *testing.T) {
	if !server.IDLess("t2", "t10") {
		t.Error("t2 should sort before t10 (numeric, not lexicographic)")
	}
	if server.IDLess("t10", "t2") {
		t.Error("t10 should not sort before t2")
	}
	if !server.IDLess("d1", "t1") {
		t.Error("cross-prefix falls back to lexicographic")
	}
}
