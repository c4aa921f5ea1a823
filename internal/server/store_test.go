package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	rfidclean "repro"
	"repro/internal/dataset"
)

// testCleaneds cleans the same short sequence n times against the small test
// deployment, yielding n distinct graphs of identical (known) size.
func testCleaneds(t testing.TB, n int) []*rfidclean.Cleaned {
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

// TestTrajStoreChargesPassesOnce: the first stay query on a stored clean
// charges the passes it caches, once. A charge that takes the store past its
// budget evicts the least recently used clean, never the queried one.
func TestTrajStoreChargesPassesOnce(t *testing.T) {
	cs := testCleaneds(t, 2)
	one, passes := itemBytes(cs[0]), passBytes(cs[0])
	m := newMetrics()
	st := newTrajStore(2*one+passes/2, 1, 0, m) // both cleans fit, one's passes do not
	ids := st.addBatch("d1", cs)
	srv := &Server{store: st}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.handleStay(rec, httptest.NewRequest(http.MethodGet, "/?t=3", nil), st.get(ids[1]))
		if rec.Code != http.StatusOK {
			t.Fatalf("stay: %d %s", rec.Code, rec.Body)
		}
	}
	if count, bytes := st.stats(); count != 1 || bytes != one+passes {
		t.Errorf("stats = (%d, %d), want (1, %d)", count, bytes, one+passes)
	}
	if st.get(ids[0]) != nil || st.get(ids[1]) == nil {
		t.Error("the charge evicted the queried clean, or kept the LRU one")
	}
	if m.storeEvictions.Value() != 1 || m.storeBytes.Value() != one+passes {
		t.Errorf("evictions = %d, store bytes gauge = %d, want 1 and %d", m.storeEvictions.Value(), m.storeBytes.Value(), one+passes)
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
		st.lru.push(lruEntry{used: it.lastUsed.Load(), id: id})
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

// BenchmarkStoreAdmitAtBudget measures one admit into a full store of 2,000
// graphs: each add evicts exactly one, the least recently used.
func BenchmarkStoreAdmitAtBudget(b *testing.B) {
	const n = 2000
	c := testCleaneds(b, 1)
	full := make([]*rfidclean.Cleaned, n)
	for i := range full {
		full[i] = c[0]
	}
	m := newMetrics()
	st := newTrajStore(n*int64(c[0].Stats().Bytes), 1, 0, m)
	st.addBatch("d1", full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.addBatch("d1", c)
	}
	b.StopTimer()
	if got := m.storeEvictions.Value(); got != uint64(b.N) {
		b.Fatalf("evicted %d in %d admits, want one each", got, b.N)
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

// heapChildEnv marks the test binary that TestStoreBytesMatchRetainedHeap
// starts to take its heap readings.
const heapChildEnv = "RFIDCLEAN_STORE_HEAP_CHILD"

// TestStoreBytesMatchRetainedHeap: the store's byte gauge, the unit of
// -max-store-bytes, is within 15% of the heap that stored SYN1 cleans
// retain, before and after queries cache their passes. The cleans run as
// the server runs them: a quotient with an explain report. The measurement
// runs in a child process of the test binary that runs this test alone, so
// no other test's goroutines allocate or free memory between its heap
// readings.
func TestStoreBytesMatchRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("cleans 600 sequences")
	}
	if os.Getenv(heapChildEnv) == "" {
		const name = "TestStoreBytesMatchRetainedHeap"
		cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), heapChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child process:\n%s", out)
		if err != nil {
			t.Fatalf("child process: %v", err)
		}
		if !strings.Contains(string(out), "--- PASS: "+name) {
			t.Fatal("the child process did not run the measurement")
		}
		return
	}
	cfg := dataset.SYN1()
	d, err := dataset.Build("SYN1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := (&rfidclean.Deployment{
		Name: "SYN1", Plan: d.Plan, Readers: d.Readers,
		Detection: cfg.Detection, CellSize: cfg.CellSize,
		CalibrationSamples: cfg.CalibrationSamples, Seed: cfg.Seed,
	}).System()
	if err != nil {
		t.Fatal(err)
	}
	ic, err := sys.InferConstraints(cfg.MaxSpeed, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	insts, err := d.Generate(20, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	clean := func() []*rfidclean.Cleaned {
		out := make([]*rfidclean.Cleaned, 0, n)
		for _, inst := range insts {
			opts := &rfidclean.BuildOptions{Explain: &rfidclean.BuildExplain{}, Quotient: true}
			if c, err := sys.Clean(inst.Readings, ic, opts); err == nil {
				out = append(out, c)
			}
		}
		return out
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second collection empties the kernel pools
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	clean() // warm the prior's caches
	// Each phase fills a fresh store, then measures what it retains as the
	// heap freed when the store is dropped, between two back-to-back
	// collections: memory other tests free while this one runs cannot land
	// in that window.
	for _, queried := range []bool{false, true} {
		st := newTrajStore(0, 1, 0, newMetrics())
		ids := st.addBatch("d1", clean())
		if len(st.items) < n/2 {
			t.Fatalf("only %d of %d sequences cleaned", len(st.items), n)
		}
		phase := "unqueried"
		if queried {
			// One stay query per item caches its forward/backward passes.
			phase = "queried"
			srv := &Server{store: st}
			for _, id := range ids {
				if id == "" {
					continue
				}
				rec := httptest.NewRecorder()
				srv.handleStay(rec, httptest.NewRequest(http.MethodGet, "/?t=10", nil), st.get(id))
				if rec.Code != http.StatusOK {
					t.Fatalf("stay on %s: %d %s", id, rec.Code, rec.Body)
				}
			}
		}
		items := len(st.items)
		_, charged := st.stats()
		held := heap()
		runtime.KeepAlive(st) // the store's last use: it is garbage from here
		retained := held - heap()
		ratio := float64(charged) / float64(retained)
		t.Logf("%s: %d stored cleans: charged %d bytes, retained %d (%.3f)", phase, items, charged, retained, ratio)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: store charges %d bytes for %d retained (ratio %.3f), want within 15%%", phase, charged, retained, ratio)
		}
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(insts)
	runtime.KeepAlive(ic)
}
