package server

import (
	"strconv"
	"testing"

	rfidclean "repro"
)

// testCleaneds cleans the same short sequence n times against the small test
// deployment, yielding n distinct graphs of identical (known) size.
func testCleaneds(t *testing.T, n int) []*rfidclean.Cleaned {
	t.Helper()
	_, sys := testDeployment(t)
	rng := rfidclean.NewRNG(21)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*rfidclean.Cleaned, n)
	for i := range out {
		c, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestTrajStoreLRUEviction(t *testing.T) {
	cs := testCleaneds(t, 4)
	one := int64(cs[0].Stats().Bytes)
	if one == 0 {
		t.Fatal("empty graph")
	}
	m := newMetrics()
	// Budget for two graphs, not three.
	st := newTrajStore(2*one+one/2, 1, 0, m)

	idA := st.addBatch("d1", cs[:1])[0]
	idB := st.addBatch("d1", cs[1:2])[0]
	if st.get(idA) == nil || st.get(idB) == nil {
		t.Fatal("stored graphs not retrievable")
	}
	// Touch A so B is the LRU victim.
	st.get(idA)
	idC := st.addBatch("d1", cs[2:3])[0]
	if st.get(idB) != nil {
		t.Error("LRU graph survived eviction")
	}
	if st.get(idA) == nil || st.get(idC) == nil {
		t.Error("recently used / fresh graphs were evicted")
	}
	if m.storeEvictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1", m.storeEvictions.Value())
	}
	count, bytes := st.stats()
	if count != 2 || bytes != 2*one {
		t.Errorf("stats = (%d, %d), want (2, %d)", count, bytes, 2*one)
	}
	if m.storeCount.Value() != 2 || m.storeBytes.Value() != 2*one {
		t.Errorf("gauges = (%d, %d), want (2, %d)", m.storeCount.Value(), m.storeBytes.Value(), 2*one)
	}
}

func TestTrajStoreBatchIDsConsecutive(t *testing.T) {
	cs := testCleaneds(t, 3)
	st := newTrajStore(0, 1, 0, newMetrics())
	ids := st.addBatch("d1", []*rfidclean.Cleaned{cs[0], nil, cs[1], cs[2]})
	want := []string{"t1", "", "t2", "t3"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if st.get("t2").depID != "d1" {
		t.Error("stored trajectory lost its deployment")
	}
}

func TestTrajStoreFreshBatchNotSelfEvicting(t *testing.T) {
	cs := testCleaneds(t, 3)
	one := int64(cs[0].Stats().Bytes)
	m := newMetrics()
	st := newTrajStore(one, 1, 0, m) // budget for a single graph
	ids := st.addBatch("d1", cs)
	for i, id := range ids {
		if st.get(id) == nil {
			t.Fatalf("fresh batch slot %d evicted by its own admission", i)
		}
	}
	// The next add sheds the overshoot down to the budget.
	idNew := st.addBatch("d1", testCleaneds(t, 1))[0]
	if st.get(idNew) == nil {
		t.Fatal("fresh single add evicted")
	}
	if _, bytes := st.stats(); bytes > one {
		t.Errorf("store bytes = %d, want <= %d after re-eviction", bytes, one)
	}
}

func TestTrajStoreDelete(t *testing.T) {
	cs := testCleaneds(t, 1)
	m := newMetrics()
	st := newTrajStore(0, 1, 0, m)
	id := st.addBatch("d1", cs[:1])[0]
	if !st.delete(id) {
		t.Fatal("delete of existing trajectory failed")
	}
	if st.delete(id) {
		t.Fatal("double delete reported success")
	}
	if count, bytes := st.stats(); count != 0 || bytes != 0 {
		t.Errorf("stats after delete = (%d, %d)", count, bytes)
	}
	if m.storeBytes.Value() != 0 || m.storeCount.Value() != 0 {
		t.Errorf("gauges after delete = (%d, %d)", m.storeCount.Value(), m.storeBytes.Value())
	}
}

// syntheticStore builds a store of n one-byte items with monotonically
// increasing recency stamps, without paying for n real cleans.
func syntheticStore(n int, maxBytes int64, m *serverMetrics) *trajStore {
	st := newTrajStore(maxBytes, 1, 0, m)
	for i := 0; i < n; i++ {
		id := "t" + strconv.Itoa(i+1)
		it := &storeItem{traj: &trajectory{id: id, depID: "d1"}, bytes: 1}
		it.lastUsed.Store(st.clock.Add(1))
		st.items[id] = it
	}
	st.bytes = int64(n)
	st.next = n
	return st
}

// BenchmarkStoreEviction measures evicting half the store in one call — the
// single-pass collect+sort that replaced the per-victim full map scan
// (O(n log n) vs O(k·n); at n=8192, k=4096 the old shape walked ~33M entries
// per call).
func BenchmarkStoreEviction(b *testing.B) {
	const n = 8192
	m := newMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := syntheticStore(n, n/2, m)
		b.StartTimer()
		st.mu.Lock()
		victims := st.evictLocked(nil)
		st.mu.Unlock()
		if len(victims) != n/2 {
			b.Fatalf("evicted %d, want %d", len(victims), n/2)
		}
	}
}

// TestEvictLockedOrderAndReturn pins the eviction contract the persistence
// layer relies on: victims come back oldest-first and exactly cover the
// overshoot.
func TestEvictLockedOrderAndReturn(t *testing.T) {
	st := syntheticStore(10, 4, newMetrics())
	st.mu.Lock()
	victims := st.evictLocked(nil)
	st.mu.Unlock()
	if len(victims) != 6 {
		t.Fatalf("evicted %d, want 6", len(victims))
	}
	for i, id := range victims {
		if want := "t" + strconv.Itoa(i+1); id != want {
			t.Fatalf("victim %d = %s, want %s (oldest first)", i, id, want)
		}
	}
	if count, bytes := st.stats(); count != 4 || bytes != 4 {
		t.Fatalf("post-eviction stats = (%d, %d), want (4, 4)", count, bytes)
	}
}
