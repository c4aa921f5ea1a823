package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rfidclean "repro"
	"repro/internal/obs"
	"repro/internal/persist"
)

// durable opens a server against dir and mounts it on a test listener.
// Periodic compaction is disabled by default so tests control exactly when
// snapshots happen (opts.SnapshotInterval left zero gets -1).
func durable(t *testing.T, dir string, opts Options) (base string, srv *Server, ts *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = -1
	}
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	ts = httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts.URL, srv, ts
}

// crash simulates a hard stop: the WAL writer drains and the files close, but
// no final compaction runs — on disk it looks exactly like a kill right after
// the last fsync. The listener is shut down too so nothing keeps writing.
func crash(srv *Server, ts *httptest.Server) {
	srv.persist.shutdown(false)
	srv.sessions.close()
	ts.Close()
}

// registerDeployment posts the small test deployment and returns its id.
func registerDeployment(t *testing.T, base string, depJSON []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	return created["id"]
}

// getBody fetches a URL and returns the status and raw body bytes, for
// bit-identical comparisons across restarts.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// cleanOne posts one clean request and returns the stored trajectory.
func cleanOne(t *testing.T, base, depID string, readings rfidclean.ReadingSequence) CleanResponse {
	t.Helper()
	resp, out := postClean(t, base, CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean status = %d", resp.StatusCode)
	}
	return out
}

// testReadingsSeed generates a readings sequence off the shared test plan.
func testReadingsSeed(t *testing.T, sys *rfidclean.System, seed uint64, duration int) rfidclean.ReadingSequence {
	t.Helper()
	rng := rfidclean.NewRNG(seed)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(duration), rng)
	if err != nil {
		t.Fatal(err)
	}
	return rfidclean.GenerateReadings(truth, sys.Truth, rng)
}

// queryURLs are the endpoints whose answers must be bit-identical after a
// restart.
func queryURLs(base, id string) []string {
	return []string{
		fmt.Sprintf("%s/v1/trajectories/%s/stay?t=10", base, id),
		fmt.Sprintf("%s/v1/trajectories/%s/match?pattern=%s", base, id, "%3F+lab+%3F"),
		fmt.Sprintf("%s/v1/trajectories/%s/top?k=3", base, id),
		fmt.Sprintf("%s/v1/trajectories/%s/occupancy", base, id),
		fmt.Sprintf("%s/v1/trajectories/%s", base, id),
	}
}

// TestDurableCrashRecovery is the core durability proof: clean trajectories,
// hard-stop the server, reopen the same data directory, and demand the exact
// bytes the first process served — then show fresh ids never collide with
// recovered ones.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)

	r1 := testReadingsSeed(t, sys, 11, 40)
	r2 := testReadingsSeed(t, sys, 12, 40)
	c1 := cleanOne(t, base, depID, r1)
	c2 := cleanOne(t, base, depID, r2)

	before := make(map[string][]byte)
	for _, id := range []string{c1.ID, c2.ID} {
		for _, u := range queryURLs(base, id) {
			code, body := getBody(t, u)
			if code != http.StatusOK {
				t.Fatalf("pre-crash GET %s = %d", u, code)
			}
			before[strings.TrimPrefix(u, base)] = body
		}
	}
	_, depsBefore := getBody(t, base+"/v1/deployments")
	_, trajsBefore := getBody(t, base+"/v1/trajectories")

	srv.persist.drain()
	crash(srv, ts)

	base2, srv2, _ := durable(t, dir, Options{})
	for path, want := range before {
		code, got := getBody(t, base2+path)
		if code != http.StatusOK {
			t.Fatalf("post-crash GET %s = %d", path, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s changed across restart:\n  before: %s\n  after:  %s", path, want, got)
		}
	}
	if _, got := getBody(t, base2+"/v1/deployments"); !bytes.Equal(got, depsBefore) {
		t.Errorf("deployment list changed across restart: %s vs %s", depsBefore, got)
	}
	if _, got := getBody(t, base2+"/v1/trajectories"); !bytes.Equal(got, trajsBefore) {
		t.Errorf("trajectory list changed across restart: %s vs %s", trajsBefore, got)
	}

	// Fresh ids continue past the recovered counters.
	c3 := cleanOne(t, base2, depID, r1)
	if c3.ID == c1.ID || c3.ID == c2.ID {
		t.Fatalf("fresh trajectory id %s collides with a recovered one", c3.ID)
	}
	if n, ok := idNum("t", c3.ID); !ok || n != 3 {
		t.Fatalf("fresh trajectory id = %s, want t3", c3.ID)
	}
	if got := registerDeployment(t, base2, depJSON); got != "d2" {
		t.Fatalf("fresh deployment id = %s, want d2", got)
	}

	m := scrape(t, base2)
	for _, series := range []string{
		"rfidclean_persist_recovered_deployments 1",
		"rfidclean_persist_recovered_trajectories 2",
		"rfidclean_persist_recovery_dropped 0",
		"rfidclean_persist_recovery_truncated 0",
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	// A graceful close compacts; a third boot recovers from the snapshot.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, trajSnapshotFile)); err != nil || st.Size() == 0 {
		t.Fatalf("close did not write a snapshot: %v", err)
	}
	base3, _, _ := durable(t, dir, Options{})
	if _, got := getBody(t, base3+"/v1/deployments"); len(got) == 0 {
		t.Fatal("third boot lost the deployments")
	}
	var rows []TrajectoryRow
	if code := getJSON(t, base3+"/v1/trajectories", &rows); code != http.StatusOK || len(rows) != 3 {
		t.Fatalf("third boot trajectories = %d rows (status %d), want 3", len(rows), code)
	}
}

// TestDurableCorruptWALTail chops the last WAL frame short: recovery must
// keep the valid prefix, flag the truncation, and keep serving.
func TestDurableCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 21, 40))
	srv.persist.drain()
	c2 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 22, 40))
	srv.persist.drain()
	crash(srv, ts)

	walPath := filepath.Join(dir, trajWALFile)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	base2, _, _ := durable(t, dir, Options{})
	if code, _ := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s", base2, c1.ID)); code != http.StatusOK {
		t.Fatalf("prefix trajectory %s lost (%d)", c1.ID, code)
	}
	if code, _ := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s", base2, c2.ID)); code != http.StatusNotFound {
		t.Fatalf("chopped trajectory %s should be gone, got %d", c2.ID, code)
	}
	if !strings.Contains(scrape(t, base2), "rfidclean_persist_recovery_truncated 1") {
		t.Error("metrics missing the truncation flag")
	}
}

// TestDurableGarbageWALTail appends junk after the last valid frame; every
// record before it survives.
func TestDurableGarbageWALTail(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 31, 40))
	srv.persist.drain()
	crash(srv, ts)

	f, err := os.OpenFile(filepath.Join(dir, trajWALFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x99garbage-not-a-frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	base2, _, _ := durable(t, dir, Options{})
	if code, _ := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s", base2, c1.ID)); code != http.StatusOK {
		t.Fatalf("trajectory %s lost to a garbage tail (%d)", c1.ID, code)
	}
	if !strings.Contains(scrape(t, base2), "rfidclean_persist_recovery_truncated 1") {
		t.Error("metrics missing the truncation flag")
	}
}

// TestDurableDeleteTombstones: deletions survive a crash — neither a deleted
// trajectory nor a deleted deployment (and its trajectories) resurrect, and
// their ids are never reissued.
func TestDurableDeleteTombstones(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 41, 40))
	c2 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 42, 40))

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/trajectories/"+c1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	srv.persist.drain()
	crash(srv, ts)

	base2, srv2, ts2 := durable(t, dir, Options{})
	if code, _ := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s", base2, c1.ID)); code != http.StatusNotFound {
		t.Fatalf("deleted trajectory %s resurrected (%d)", c1.ID, code)
	}
	if code, _ := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s", base2, c2.ID)); code != http.StatusOK {
		t.Fatalf("surviving trajectory %s lost (%d)", c2.ID, code)
	}
	if c3 := cleanOne(t, base2, depID, testReadingsSeed(t, sys, 43, 40)); c3.ID != "t3" {
		t.Fatalf("post-restart id = %s, want t3 (t1 tombstoned, t2 live)", c3.ID)
	}

	// Now delete the deployment itself; its trajectories go with it.
	req, _ = http.NewRequest(http.MethodDelete, base2+"/v1/deployments/"+depID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var deleted struct {
		Deleted      string `json:"deleted"`
		Trajectories int    `json:"trajectories"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deleted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || deleted.Trajectories != 2 {
		t.Fatalf("deployment delete = %d, %+v; want 200 dropping 2 trajectories", resp.StatusCode, deleted)
	}
	srv2.persist.drain()
	crash(srv2, ts2)

	base3, _, _ := durable(t, dir, Options{})
	var rows []json.RawMessage
	if code := getJSON(t, base3+"/v1/deployments", &rows); code != http.StatusOK || len(rows) != 0 {
		t.Fatalf("deleted deployment resurrected: %d rows (status %d)", len(rows), code)
	}
	var trows []TrajectoryRow
	if code := getJSON(t, base3+"/v1/trajectories", &trows); code != http.StatusOK || len(trows) != 0 {
		t.Fatalf("deleted deployment's trajectories resurrected: %d rows", len(trows))
	}
	if got := registerDeployment(t, base3, depJSON); got != "d2" {
		t.Fatalf("deployment id after delete+restart = %s, want d2 (d1 spent)", got)
	}
}

// TestDurableBudgetOnRecovery reopens a full data directory under a byte
// budget: the oldest recovered graphs are dropped first, counted as
// evictions, and stay dead on the next boot.
func TestDurableBudgetOnRecovery(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	var cs []CleanResponse
	for seed := uint64(51); seed < 55; seed++ {
		cs = append(cs, cleanOne(t, base, depID, testReadingsSeed(t, sys, seed, 40)))
	}
	srv.persist.drain()
	crash(srv, ts)

	// Budget for roughly the two largest graphs: the two oldest must go.
	budget := int64(cs[2].Bytes + cs[3].Bytes)
	base2, srv2, ts2 := durable(t, dir, Options{MaxStoreBytes: budget})
	var rows []TrajectoryRow
	if code := getJSON(t, base2+"/v1/trajectories", &rows); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if len(rows) != 2 || rows[0].ID != cs[2].ID || rows[1].ID != cs[3].ID {
		t.Fatalf("budgeted recovery kept %+v, want the two newest (%s, %s)", rows, cs[2].ID, cs[3].ID)
	}
	m := scrape(t, base2)
	for _, series := range []string{
		"rfidclean_persist_recovery_dropped 2",
		"rfidclean_store_evictions_total 2",
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	// The drops were tombstoned: a third boot does not resurrect them and
	// reports nothing newly dropped.
	srv2.persist.drain()
	crash(srv2, ts2)
	base3, _, _ := durable(t, dir, Options{MaxStoreBytes: budget})
	rows = nil
	if code := getJSON(t, base3+"/v1/trajectories", &rows); code != http.StatusOK || len(rows) != 2 {
		t.Fatalf("third boot rows = %+v (status %d), want the same 2", rows, code)
	}
	if !strings.Contains(scrape(t, base3), "rfidclean_persist_recovery_dropped 0") {
		t.Error("third boot re-dropped tombstoned trajectories")
	}
}

// TestDurableCompaction drives an explicit flush+compact cycle and proves a
// crash afterwards recovers from snapshot plus the post-compaction WAL.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 61, 40))
	c2 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 62, 40))
	srv.persist.drain()
	if srv.persist.wal.Size() == 0 {
		t.Fatal("WAL empty after two cleans")
	}
	srv.persist.compactNow()
	if srv.persist.wal.Size() != 0 {
		t.Fatalf("WAL not truncated by compaction (size %d)", srv.persist.wal.Size())
	}
	if st, err := os.Stat(filepath.Join(dir, trajSnapshotFile)); err != nil || st.Size() == 0 {
		t.Fatalf("compaction wrote no snapshot: %v", err)
	}
	if !strings.Contains(scrape(t, base), "rfidclean_persist_compactions_total 1") {
		t.Error("metrics missing the compaction")
	}

	// Post-compaction mutations land in the fresh WAL.
	c3 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 63, 40))
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/trajectories/"+c1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.persist.drain()
	crash(srv, ts)

	base2, _, _ := durable(t, dir, Options{})
	var rows []TrajectoryRow
	if code := getJSON(t, base2+"/v1/trajectories", &rows); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	want := []string{c2.ID, c3.ID}
	if len(rows) != 2 || rows[0].ID != want[0] || rows[1].ID != want[1] {
		t.Fatalf("recovered %+v, want %v", rows, want)
	}
	if c4 := cleanOne(t, base2, depID, testReadingsSeed(t, sys, 64, 40)); c4.ID != "t4" {
		t.Fatalf("post-compaction fresh id = %s, want t4", c4.ID)
	}
}

// TestDurablePersistTraces checks the persister's own traces — recovery at
// boot, WAL flushes and compactions — are retained beside request traces and
// listed at /debug/traces under their operation names.
func TestDurablePersistTraces(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	cleanOne(t, base, depID, testReadingsSeed(t, sys, 71, 40))
	srv.persist.drain()
	crash(srv, ts)

	base2, srv2, _ := durable(t, dir, Options{})
	cleanOne(t, base2, depID, testReadingsSeed(t, sys, 72, 40))
	srv2.persist.compactNow()

	var listing debugTracesResponse
	if code := getJSON(t, base2+"/debug/traces", &listing); code != http.StatusOK {
		t.Fatalf("trace list status = %d", code)
	}
	roots := make(map[string]bool)
	for _, tr := range listing.Traces {
		if len(tr.Spans) > 0 {
			roots[tr.ID+"/"+tr.Spans[0].Name] = true
		}
	}
	for _, op := range []string{"persist.recover", "persist.flush", "persist.compact"} {
		if !roots[op+"/"+op] {
			t.Errorf("/debug/traces lists no %s trace; have %v", op, roots)
		}
		var tr obs.TraceExport
		if code := getJSON(t, base2+"/debug/traces?id="+op, &tr); code != http.StatusOK || tr.ID != op {
			t.Errorf("/debug/traces?id=%s = %d, trace %q", op, code, tr.ID)
		}
	}
}

// rewriteAsVersion1 rewrites the record log at path the way builds before
// binary records wrote it: every payload is the record's encoding/json
// object.
func rewriteAsVersion1(t *testing.T, path string) {
	t.Helper()
	var out []byte
	if _, _, err := persist.ReplayLog(path, func(rec persist.Record) error {
		payload, err := json.Marshal(rec)
		out = persist.AppendFrame(out, payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoversVersion1DataDir: a data directory whose snapshot and
// WAL hold JSON-payload records recovers to the same answers, and the next
// compaction rewrites it in binary records.
func TestDurableRecoversVersion1DataDir(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 81, 40))
	srv.persist.compactNow()
	c2 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 82, 40))
	before := make(map[string][]byte)
	for _, id := range []string{c1.ID, c2.ID} {
		for _, u := range queryURLs(base, id) {
			_, body := getBody(t, u)
			before[strings.TrimPrefix(u, base)] = body
		}
	}
	srv.persist.drain()
	crash(srv, ts)
	snap, wal := filepath.Join(dir, trajSnapshotFile), filepath.Join(dir, trajWALFile)
	rewriteAsVersion1(t, snap)
	rewriteAsVersion1(t, wal)

	base2, srv2, _ := durable(t, dir, Options{})
	for path, want := range before {
		if code, got := getBody(t, base2+path); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("GET %s from a version-1 data dir = %d %s, want %s", path, code, got, want)
		}
	}
	srv2.persist.compactNow()
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if payload, _, err := persist.ParseFrame(data); err != nil || payload[0] == '{' {
		t.Fatalf("compaction left a version-1 snapshot (err %v)", err)
	}
	if srv2.persist.wal.Size() != 0 {
		t.Fatal("compaction left the WAL non-empty")
	}
}

// TestDurableIDCountersSurviveEmptyState: even after everything is deleted
// and compacted away, the meta records keep the counters monotonic.
func TestDurableIDCountersSurviveEmptyState(t *testing.T) {
	dir := t.TempDir()
	depJSON, sys := testDeployment(t)
	base, srv, _ := durable(t, dir, Options{})
	depID := registerDeployment(t, base, depJSON)
	c1 := cleanOne(t, base, depID, testReadingsSeed(t, sys, 71, 40))
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/trajectories/"+c1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/deployments/"+depID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil { // graceful: final compaction erases the tombstones
		t.Fatal(err)
	}

	base2, _, _ := durable(t, dir, Options{})
	if got := registerDeployment(t, base2, depJSON); got != "d2" {
		t.Fatalf("deployment id = %s, want d2", got)
	}
	if c := cleanOne(t, base2, "d2", testReadingsSeed(t, sys, 72, 40)); c.ID != "t2" {
		t.Fatalf("trajectory id = %s, want t2", c.ID)
	}
}

// TestDurableCorruptDeploymentsFailsBoot: deployments.json is written
// atomically, so corruption means something external went wrong — boot must
// fail loudly rather than silently serve an empty registry over a data
// directory full of trajectories.
func TestDurableCorruptDeploymentsFailsBoot(t *testing.T) {
	dir := t.TempDir()
	depJSON, _ := testDeployment(t)
	base, srv, ts := durable(t, dir, Options{})
	registerDeployment(t, base, depJSON)
	srv.persist.drain()
	crash(srv, ts)

	if err := os.WriteFile(filepath.Join(dir, deploymentsFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir, SnapshotInterval: -1}); err == nil {
		t.Fatal("Open succeeded over a corrupt deployments snapshot")
	}
}

// TestPersistenceOffByDefault: without a data directory nothing is wired in —
// the hot path never sees the persister and no files appear.
func TestPersistenceOffByDefault(t *testing.T) {
	srv, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.persist != nil || srv.store.persist != nil {
		t.Fatal("persistence wired in without DataDir")
	}
}
