package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/server"
)

// fakeShard is a scripted worker backend recording what the router sends.
type fakeShard struct {
	mu       sync.Mutex
	requests []*http.Request
	assigned []string // AssignIDHeader values seen on deployment POSTs
	deletes  []string // deployment ids DELETEd
	srv      *httptest.Server
}

func (f *fakeShard) record(r *http.Request) {
	f.mu.Lock()
	f.requests = append(f.requests, r)
	f.mu.Unlock()
}

func (f *fakeShard) paths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.requests))
	for i, r := range f.requests {
		out[i] = r.Method + " " + r.URL.Path
	}
	return out
}

// newTestRouter builds a router over n fake shards driven by handler(shard).
func newTestRouter(t *testing.T, n int, handler func(shard int) http.Handler) (*Router, []*fakeShard) {
	t.Helper()
	fakes := make([]*fakeShard, n)
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		f := &fakeShard{}
		h := handler(i)
		f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.record(r)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(f.srv.Close)
		fakes[i] = f
		bases[i] = f.srv.URL
	}
	rt, err := NewRouter(Options{Shards: bases})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rt.clients {
		c.timeout, c.retries = 5*time.Second, 0
	}
	return rt, fakes
}

// listingHandler answers GET /v1/trajectories with fixed rows and empty
// deployment listings (for the id-counter seed).
func listingHandler(rows []server.TrajectoryRow) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trajectories", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rows)
	})
	mux.HandleFunc("/v1/deployments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, []any{})
	})
	return mux
}

// countingWriter asserts the single-WriteHeader contract: a partial
// scatter-gather failure must never produce a second header write.
type countingWriter struct {
	*httptest.ResponseRecorder
	headerWrites int
}

func (c *countingWriter) WriteHeader(status int) {
	c.headerWrites++
	c.ResponseRecorder.WriteHeader(status)
}

// TestRouterListingMergesAcrossShards: the scatter-gathered listing is one
// id-ordered slice, indistinguishable from a single node's.
func TestRouterListingMergesAcrossShards(t *testing.T) {
	rowsFor := map[int][]server.TrajectoryRow{
		0: {{ID: "t3"}, {ID: "t9"}},
		1: {{ID: "t1"}, {ID: "t10"}},
		2: {{ID: "t2"}},
	}
	rt, _ := newTestRouter(t, 3, func(i int) http.Handler { return listingHandler(rowsFor[i]) })

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trajectories", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", rec.Code, rec.Body)
	}
	var rows []server.TrajectoryRow
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = r.ID
	}
	want := "t1,t2,t3,t9,t10"
	if strings.Join(got, ",") != want {
		t.Fatalf("merged listing = %s, want %s", strings.Join(got, ","), want)
	}
}

// TestRouterListingDegradedShard: one shard down -> 206, the partial
// header names it, the reachable shards' rows still come back, and the
// degradation is counted. (Satellite S5: one-shard-down degraded listing.)
func TestRouterListingDegradedShard(t *testing.T) {
	rowsFor := map[int][]server.TrajectoryRow{
		0: {{ID: "t3"}},
		1: {{ID: "t1"}},
		2: {{ID: "t2"}},
	}
	rt, fakes := newTestRouter(t, 3, func(i int) http.Handler { return listingHandler(rowsFor[i]) })
	fakes[1].srv.Close()

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trajectories", nil))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(PartialHeader); got != "1" {
		t.Fatalf("%s = %q, want %q", PartialHeader, got, "1")
	}
	var rows []server.TrajectoryRow
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].ID != "t2" || rows[1].ID != "t3" {
		t.Fatalf("degraded listing = %+v, want [t2 t3]", rows)
	}
	if got := rt.m.partials.Value(); got != 1 {
		t.Fatalf("partial metric = %d, want 1", got)
	}
}

// TestRouterBatchScatterGather: a batch's sequences fan out to their ring
// shards and the per-slot results reassemble in request order, even when
// one shard fails mid-gather — its slots carry errors, the response is a
// single well-formed 200, and exactly one header write happens.
// (Satellites S4 + S5.)
func TestRouterBatchScatterGather(t *testing.T) {
	const n = 3
	batchHandler := func(shard int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/clean/batch", func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Sequences []json.RawMessage `json:"sequences"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			out := make([]server.BatchCleanResult, len(req.Sequences))
			for i := range out {
				out[i] = server.BatchCleanResult{ID: fmt.Sprintf("shard%d-pos%d", shard, i)}
			}
			writeJSON(w, http.StatusOK, out)
		})
		return mux
	}
	rt, fakes := newTestRouter(t, n, func(i int) http.Handler { return batchHandler(i) })

	const seqs = 12
	sequences := make([]string, seqs)
	for i := range sequences {
		sequences[i] = fmt.Sprintf(`[{"time":%d,"readers":[0]}]`, i)
	}
	body := fmt.Sprintf(`{"deployment":"d1","maxSpeed":2,"sequences":[%s]}`, strings.Join(sequences, ","))

	// First pass with every shard up: results must land in request order at
	// the position the ring assigned them.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", rec.Code, rec.Body)
	}
	var out []server.BatchCleanResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != seqs {
		t.Fatalf("got %d results for %d sequences", len(out), seqs)
	}
	// Recompute the expected placement with the same ring the router uses.
	pos := make([]int, n)
	shardsSeen := map[int]bool{}
	for i, seq := range sequences {
		// The envelope re-encodes sequences via json.RawMessage, preserving
		// the original bytes, so the key matches byte-for-byte.
		sh := rt.ring.Lookup("seq\x00d1\x00" + seq)
		shardsSeen[sh] = true
		want := fmt.Sprintf("shard%d-pos%d", sh, pos[sh])
		pos[sh]++
		if out[i].ID != want {
			t.Fatalf("slot %d = %q, want %q (wrong shard or order)", i, out[i].ID, want)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("test batch only exercised %d shards; need cross-shard coverage", len(shardsSeen))
	}

	// Second pass with one participating shard down: its slots error, the
	// others still succeed, and the response writes headers exactly once.
	var downShard int
	for sh := range shardsSeen {
		downShard = sh
		break
	}
	fakes[downShard].srv.Close()
	cw := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	rt.ServeHTTP(cw, httptest.NewRequest(http.MethodPost, "/v1/clean/batch", strings.NewReader(body)))
	if cw.headerWrites != 1 {
		t.Fatalf("WriteHeader called %d times after a partial shard failure, want exactly 1", cw.headerWrites)
	}
	if cw.Code != http.StatusOK {
		t.Fatalf("degraded batch status = %d, want 200 with per-slot errors; body %s", cw.Code, cw.Body)
	}
	var degraded []server.BatchCleanResult
	if err := json.Unmarshal(cw.Body.Bytes(), &degraded); err != nil {
		t.Fatalf("degraded batch response is not valid JSON: %v", err)
	}
	for i, seq := range sequences {
		sh := rt.ring.Lookup("seq\x00d1\x00" + seq)
		if sh == downShard {
			if degraded[i].Error == "" || degraded[i].ID != "" {
				t.Fatalf("slot %d (down shard %d) = %+v, want an error", i, sh, degraded[i])
			}
		} else if degraded[i].Error != "" {
			t.Fatalf("slot %d (healthy shard %d) errored: %s", i, sh, degraded[i].Error)
		}
	}
}

// TestRouterBatchDecodesLikeWorker: the router splits the sequences and
// routes by the deployment a single worker would decode from the body.
// encoding/json matches keys case-insensitively and the last match wins, so
// here a single node cleans the second sequence on d1, and so must the
// shards the router hands the batch to.
func TestRouterBatchDecodesLikeWorker(t *testing.T) {
	handler := func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req server.BatchCleanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			out := make([]server.BatchCleanResult, len(req.Sequences))
			for i, seq := range req.Sequences {
				out[i] = server.BatchCleanResult{ID: fmt.Sprintf("%s/%d", req.Deployment, seq[0].Time)}
			}
			writeJSON(w, http.StatusOK, out)
		})
	}
	rt, _ := newTestRouter(t, 3, handler)
	body := `{"deployment":"d2","sequences":[[{"time":1,"readers":[0]}]],` +
		`"Deployment":"d1","Sequences":[[{"time":2,"readers":[0]}]]}`
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", rec.Code, rec.Body)
	}
	var out []server.BatchCleanResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "d1/2" {
		t.Fatalf("results = %+v, want the sequence at time 2 cleaned on d1", out)
	}
}

// FuzzRouterBatchSplit: on any body the worker decodes, the router decodes
// the same sequences, and however they are dealt out to shards, the
// sub-bodies hand each to exactly one shard, in slot order, and decode to
// the same other fields.
func FuzzRouterBatchSplit(f *testing.F) {
	for _, body := range []string{
		`{"deployment":"d1","maxSpeed":2,"sequences":[[{"time":0,"readers":[0]}],[{"time":0,"readers":[1,2]}],null,[]]}`,
		`{"deployment":"d2","sequences":[[1]],"Deployment":"d1","Sequences":[[{"time":0,"readers":[2]}]]}`,
		`{"\u0073equences":[[{"time":0,"readers":[3]}]],"minStay":5,"\u017fequences":[[],[{"time":0,"readers":[4]}]]}`,
		`{"sequences":[[{"time":0,"readers":[1]}]],"strictEnd":true,"ttCap":3,"sequences":null} {"trailing":1}`,
		`{"sequences":[[{"time":0,"readers":[]}]],"other":{"sequences":[1]},"deployment":"a","deployment":"b"}`,
		`null`,
	} {
		f.Add([]byte(body), byte(7))
	}
	decode := func(body []byte) (server.BatchCleanRequest, error) {
		var req server.BatchCleanRequest
		err := server.DecodeJSON(bytes.NewReader(body), &req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, body []byte, deal byte) {
		want, err := decode(body)
		if err != nil {
			return
		}
		env, err := decodeBatch(body)
		if err != nil {
			t.Fatalf("the worker decodes the body but the router fails: %v", err)
		}
		if len(env.Sequences) != len(want.Sequences) {
			t.Fatalf("router decodes %d sequences, the worker %d", len(env.Sequences), len(want.Sequences))
		}
		if len(want.Sequences) == 0 {
			return
		}
		shards := 1 + int(deal%4)
		parts := make([][]json.RawMessage, shards)
		dealt := make([]int, len(env.Sequences))
		for i, seq := range env.Sequences {
			dealt[i] = (int(deal>>2) + i*i) % shards
			parts[dealt[i]] = append(parts[dealt[i]], seq)
		}
		got := make([][]rfidclean.ReadingSequence, shards)
		for sh, seqs := range parts {
			if len(seqs) == 0 {
				continue
			}
			sub, err := env.encodeWith(seqs)
			if err != nil {
				t.Fatal(err)
			}
			req, err := decode(sub)
			if err != nil {
				t.Fatalf("shard %d cannot decode its sub-body %s: %v", sh, sub, err)
			}
			if len(req.Sequences) != len(seqs) {
				t.Fatalf("shard %d decodes %d sequences, was dealt %d", sh, len(req.Sequences), len(seqs))
			}
			got[sh], req.Sequences = req.Sequences, want.Sequences
			if !reflect.DeepEqual(req, want) {
				t.Fatalf("shard %d decodes %+v, the worker %+v", sh, req, want)
			}
		}
		pos := make([]int, shards)
		for i, sh := range dealt {
			if !reflect.DeepEqual(got[sh][pos[sh]], want.Sequences[i]) {
				t.Fatalf("slot %d decodes %v on shard %d, the worker %v", i, got[sh][pos[sh]], sh, want.Sequences[i])
			}
			pos[sh]++
		}
	})
}

// TestRouterDeploymentReplication: one POST registers on every shard under
// one router-assigned id, seeded past the ids the shards already hold.
func TestRouterDeploymentReplication(t *testing.T) {
	depHandler := func(shard int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/deployments", func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				// Shard 1 already holds d4 (pre-existing single-node state).
				if shard == 1 {
					writeJSON(w, http.StatusOK, []map[string]string{{"id": "d4"}})
					return
				}
				writeJSON(w, http.StatusOK, []any{})
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{"id": r.Header.Get(server.AssignIDHeader)})
		})
		return mux
	}
	rt, fakes := newTestRouter(t, 3, func(i int) http.Handler { return depHandler(i) })

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments", strings.NewReader(`{"name":"x"}`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201; body %s", rec.Code, rec.Body)
	}
	var created map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created["id"] != "d5" {
		t.Fatalf("assigned id = %q, want d5 (past shard 1's existing d4)", created["id"])
	}
	for i, f := range fakes {
		f.mu.Lock()
		var posts int
		for _, r := range f.requests {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/deployments" {
				posts++
				if got := r.Header.Get(server.AssignIDHeader); got != "d5" {
					t.Errorf("shard %d saw %s = %q, want d5", i, server.AssignIDHeader, got)
				}
			}
		}
		f.mu.Unlock()
		if posts != 1 {
			t.Errorf("shard %d saw %d registration POSTs, want 1", i, posts)
		}
	}
}

// TestRouterDeploymentReplicationPartialFailure: when a shard is down the
// registration rolls back on the shards that accepted it and the caller
// gets a 502, not a silently half-replicated deployment.
func TestRouterDeploymentReplicationPartialFailure(t *testing.T) {
	depHandler := func(shard int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/deployments", func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				writeJSON(w, http.StatusOK, []any{})
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{"id": r.Header.Get(server.AssignIDHeader)})
		})
		mux.HandleFunc("/v1/deployments/", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]any{"deleted": strings.TrimPrefix(r.URL.Path, "/v1/deployments/")})
		})
		return mux
	}
	rt, fakes := newTestRouter(t, 2, func(i int) http.Handler { return depHandler(i) })
	// Seed the id counter while everything is reachable, then lose shard 1.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments", strings.NewReader(`{"name":"a"}`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed registration status = %d; body %s", rec.Code, rec.Body)
	}
	fakes[1].srv.Close()

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments", strings.NewReader(`{"name":"b"}`)))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("partial replication status = %d, want 502; body %s", rec.Code, rec.Body)
	}
	if got := rt.m.replicationFailures.Value(); got != 1 {
		t.Fatalf("replication failures metric = %d, want 1", got)
	}
	var sawRollback bool
	fakes[0].mu.Lock()
	for _, r := range fakes[0].requests {
		if r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/deployments/") {
			sawRollback = true
		}
	}
	fakes[0].mu.Unlock()
	if !sawRollback {
		t.Fatal("surviving shard saw no compensating DELETE after partial replication")
	}
}

// TestRouterRoutesByIDResidue: id-addressed traffic goes only to the shard
// whose index matches the id's numeric residue.
func TestRouterRoutesByIDResidue(t *testing.T) {
	okHandler := func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"ok": "1"})
		})
	}
	rt, fakes := newTestRouter(t, 3, okHandler)

	cases := []struct {
		path string
		want int
	}{
		{"/v1/trajectories/t7/stay?t=0", 1}, // 7 mod 3
		{"/v1/stream/s5", 2},                // 5 mod 3
		{"/v1/stream/s6/readings", 0},       // 6 mod 3
	}
	for _, c := range cases {
		method := http.MethodGet
		var body *strings.Reader = strings.NewReader("")
		if strings.HasSuffix(c.path, "/readings") {
			method = http.MethodPost
			body = strings.NewReader(`{"readings":[]}`)
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(method, c.path, body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d; body %s", c.path, rec.Code, rec.Body)
		}
	}
	wantCounts := []int{1, 1, 1}
	for i, f := range fakes {
		if got := len(f.paths()); got != wantCounts[i] {
			t.Errorf("shard %d saw %d requests (%v), want %d", i, got, f.paths(), wantCounts[i])
		}
	}

	// A malformed id resolves nowhere and answers 404 without touching any
	// shard.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trajectories/bogus", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("bogus id status = %d, want 404", rec.Code)
	}
}

// TestRouterCleanTagAffinity: the same tag always lands on the same shard,
// so one object's cleans share that worker's constraint cache.
func TestRouterCleanTagAffinity(t *testing.T) {
	okHandler := func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusCreated, map[string]string{"id": "t1"})
		})
	}
	rt, fakes := newTestRouter(t, 3, okHandler)
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"deployment":"d1","tag":"obj-42","readings":[],"maxSpeed":2,"nonce":%d}`, i)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("clean %d: status = %d", i, rec.Code)
		}
	}
	hit := 0
	for _, f := range fakes {
		if n := len(f.paths()); n > 0 {
			hit++
			if n != 4 {
				t.Fatalf("tagged cleans split across shards: %v", f.paths())
			}
		}
	}
	if hit != 1 {
		t.Fatalf("tagged cleans reached %d shards, want exactly 1", hit)
	}
}

// TestRouterHealthzDegraded: the aggregate health view flips to 503
// "degraded" when a shard is unreachable and names it.
func TestRouterHealthzDegraded(t *testing.T) {
	okHandler := func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		})
	}
	rt, fakes := newTestRouter(t, 2, okHandler)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy status = %d, want 200; body %s", rec.Code, rec.Body)
	}

	fakes[1].srv.Close()
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded status = %d, want 503; body %s", rec.Code, rec.Body)
	}
	var health struct {
		Status string        `json:"status"`
		Shards []shardHealth `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", health.Status)
	}
	if len(health.Shards) != 2 || health.Shards[0].Status != "ok" || health.Shards[1].Status != "unreachable" {
		t.Fatalf("per-shard view = %+v", health.Shards)
	}
}

// TestRouterMetricsPerShard: the router's /metrics carries per-shard series
// after traffic has flowed, including shard_up 0 for a dead shard.
func TestRouterMetricsPerShard(t *testing.T) {
	rt, fakes := newTestRouter(t, 2, func(i int) http.Handler { return listingHandler(nil) })
	fakes[1].srv.Close()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trajectories", nil))

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`rfidclean_router_requests_total{shard="0",class="2xx"} 1`,
		`rfidclean_router_requests_total{shard="1",class="transport"} 1`,
		`rfidclean_router_shard_up{shard="0"} 1`,
		`rfidclean_router_shard_up{shard="1"} 0`,
		`rfidclean_router_request_duration_seconds_count{shard="0"} 1`,
		`rfidclean_router_partial_reads_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, body)
		}
	}
}

// TestRouterBodyCap: the router applies the worker's body cap itself, since
// it buffers every body for replay. An oversized clean is answered 413
// without reaching a shard; one within the cap is forwarded.
func TestRouterBodyCap(t *testing.T) {
	rt, fakes := newTestRouter(t, 1, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusCreated, map[string]string{"id": "t1"})
		})
	})
	if rt.maxBody != server.BodyLimit {
		t.Fatalf("router body cap = %d, want server.BodyLimit %d", rt.maxBody, server.BodyLimit)
	}
	rt.maxBody = 64

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean", strings.NewReader(strings.Repeat("x", 65))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413; body %s", rec.Code, rec.Body)
	}
	if got := fakes[0].paths(); len(got) != 0 {
		t.Fatalf("oversized body reached the shard: %v", got)
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean", strings.NewReader(`{"deployment":"d1"}`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("body within the cap: status = %d, want 201; body %s", rec.Code, rec.Body)
	}
	if got := fakes[0].paths(); len(got) != 1 || got[0] != "POST /v1/clean" {
		t.Fatalf("shard saw %v, want one POST /v1/clean", got)
	}
}
