package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/server"
)

// bootFleet boots n worker daemons in worker mode plus a router daemon
// fronting them, all through run() — the same code path the binary takes.
// Cleanups stop the router first, then the workers.
func bootFleet(t *testing.T, n int, workerCfg config) (routerBase string, workerBases []string) {
	t.Helper()
	workerBases = make([]string, n)
	for i := 0; i < n; i++ {
		cfg := workerCfg
		cfg.shardIndex, cfg.shardCount = i, n
		base, shutdown, runErr := bootDaemon(t, cfg)
		t.Cleanup(func() { stopDaemon(t, shutdown, runErr) })
		workerBases[i] = base
	}
	routerBase, shutdown, runErr := bootDaemon(t, config{shards: strings.Join(workerBases, ",")})
	t.Cleanup(func() { stopDaemon(t, shutdown, runErr) })
	return routerBase, workerBases
}

// register posts a deployment and returns its id.
func register(t *testing.T, base string, depJSON []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d: %s", resp.StatusCode, body)
	}
	var created map[string]string
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created["id"]
}

// fetchBytes GETs a URL and returns the raw body.
func fetchBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestRouterShardedMatchesSingleNode: the tentpole acceptance check. The
// same cleans issued against a single node and against a 3-worker fleet
// behind the router produce byte-identical query results — stay, top and
// occupancy bodies — for every trajectory, and the routed listing is one
// id-ordered view over all shards.
func TestRouterShardedMatchesSingleNode(t *testing.T) {
	dep, sys := smallDeployment(t)
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	depJSON := buf.Bytes()

	singleBase, singleStop, singleErr := bootDaemon(t, config{})
	t.Cleanup(func() { stopDaemon(t, singleStop, singleErr) })
	routerBase, _ := bootFleet(t, 3, config{})

	singleDep := register(t, singleBase, depJSON)
	routedDep := register(t, routerBase, depJSON)

	// Six distinct objects' reading sequences.
	const objects = 6
	var sequences []rfidclean.ReadingSequence
	for i := 0; i < objects; i++ {
		rng := rfidclean.NewRNG(uint64(100 + i))
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(40), rng)
		if err != nil {
			t.Fatal(err)
		}
		sequences = append(sequences, rfidclean.GenerateReadings(truth, sys.Truth, rng))
	}

	clean := func(base, depID, tag string, readings rfidclean.ReadingSequence) server.CleanResponse {
		t.Helper()
		body, err := json.Marshal(server.CleanRequest{
			Deployment: depID, Tag: tag, Readings: readings, MaxSpeed: 2, MinStay: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/clean", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("clean status = %d: %s", resp.StatusCode, raw)
		}
		var out server.CleanResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	queries := []string{"/stay?t=10", "/stay?t=25", "/top?k=3", "/occupancy"}
	shardsUsed := map[int]bool{}
	for i, readings := range sequences {
		tag := fmt.Sprintf("obj-%d", i)
		sres := clean(singleBase, singleDep, tag, readings)
		rres := clean(routerBase, routedDep, tag, readings)
		if sres.Nodes != rres.Nodes || sres.Edges != rres.Edges || sres.Bytes != rres.Bytes {
			t.Fatalf("object %d: routed graph (%d nodes, %d edges, %d bytes) != single-node (%d, %d, %d)",
				i, rres.Nodes, rres.Edges, rres.Bytes, sres.Nodes, sres.Edges, sres.Bytes)
		}
		if n, ok := idNumSuffix(rres.ID); ok {
			shardsUsed[n%3] = true
		}
		for _, q := range queries {
			sCode, sBody := fetchBytes(t, singleBase+"/v1/trajectories/"+sres.ID+q)
			rCode, rBody := fetchBytes(t, routerBase+"/v1/trajectories/"+rres.ID+q)
			if sCode != http.StatusOK || rCode != http.StatusOK {
				t.Fatalf("object %d %s: status single=%d routed=%d", i, q, sCode, rCode)
			}
			if !bytes.Equal(sBody, rBody) {
				t.Fatalf("object %d %s: routed body differs from single-node\nsingle: %s\nrouted: %s", i, q, sBody, rBody)
			}
		}
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("all tagged cleans landed on %d shard(s); the test needs cross-shard coverage", len(shardsUsed))
	}

	// Batch: per-slot results must line up positionally with a single
	// node's, and each routed slot's query bodies must match its
	// single-node counterpart byte for byte.
	batch := func(base, depID string) []server.BatchCleanResult {
		t.Helper()
		body, err := json.Marshal(server.BatchCleanRequest{
			Deployment: depID, Sequences: sequences, MaxSpeed: 2, MinStay: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
		}
		var out []server.BatchCleanResult
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sBatch := batch(singleBase, singleDep)
	rBatch := batch(routerBase, routedDep)
	if len(sBatch) != objects || len(rBatch) != objects {
		t.Fatalf("batch sizes: single=%d routed=%d, want %d", len(sBatch), len(rBatch), objects)
	}
	for i := range sBatch {
		if sBatch[i].Error != "" || rBatch[i].Error != "" {
			t.Fatalf("batch slot %d errored: single=%q routed=%q", i, sBatch[i].Error, rBatch[i].Error)
		}
		if sBatch[i].Nodes != rBatch[i].Nodes || sBatch[i].Edges != rBatch[i].Edges || sBatch[i].Bytes != rBatch[i].Bytes {
			t.Fatalf("batch slot %d: routed graph stats differ from single-node", i)
		}
		sCode, sBody := fetchBytes(t, singleBase+"/v1/trajectories/"+sBatch[i].ID+"/stay?t=10")
		rCode, rBody := fetchBytes(t, routerBase+"/v1/trajectories/"+rBatch[i].ID+"/stay?t=10")
		if sCode != http.StatusOK || rCode != http.StatusOK || !bytes.Equal(sBody, rBody) {
			t.Fatalf("batch slot %d stay body differs through the router", i)
		}
	}

	// The routed listing covers every shard's trajectories in one
	// id-ordered view.
	code, listing := fetchBytes(t, routerBase+"/v1/trajectories")
	if code != http.StatusOK {
		t.Fatalf("routed listing status = %d", code)
	}
	var rows []server.TrajectoryRow
	if err := json.Unmarshal(listing, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*objects {
		t.Fatalf("routed listing has %d rows, want %d", len(rows), 2*objects)
	}
	for i := 1; i < len(rows); i++ {
		a, _ := idNumSuffix(rows[i-1].ID)
		b, _ := idNumSuffix(rows[i].ID)
		if a >= b {
			t.Fatalf("routed listing out of order: %s before %s", rows[i-1].ID, rows[i].ID)
		}
	}

	// Aggregate health and per-shard metrics.
	code, health := fetchBytes(t, routerBase+"/healthz")
	if code != http.StatusOK || !bytes.Contains(health, []byte(`"status":"ok"`)) {
		t.Fatalf("router healthz = %d %s", code, health)
	}
	code, metrics := fetchBytes(t, routerBase+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("router metrics status = %d", code)
	}
	for shard := 0; shard < 3; shard++ {
		want := fmt.Sprintf(`rfidclean_router_requests_total{shard="%d",class="2xx"}`, shard)
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("router metrics missing per-shard series %q", want)
		}
	}
}

func idNumSuffix(id string) (int, bool) {
	n := 0
	seen := false
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
			seen = true
		} else if seen {
			return 0, false
		}
	}
	return n, seen
}

// sseConn is one SSE subscription through the router.
type sseConn struct {
	resp *http.Response
	rd   *bufio.Reader
}

func openSSE(t *testing.T, base, sessID, lastEventID string) *sseConn {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/stream/"+sessID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q through the router", ct)
	}
	return &sseConn{resp: resp, rd: bufio.NewReader(resp.Body)}
}

// readUntil reads SSE lines until want distinct event ids have been seen,
// returning all raw lines read (including comments).
func (c *sseConn) readUntil(t *testing.T, wantEvents int) (lines []string, lastID string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	events := 0
	for events < wantEvents {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %d/%d events; lines so far: %q", events, wantEvents, lines)
		}
		line, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v (lines so far: %q)", err, lines)
		}
		line = strings.TrimRight(line, "\n")
		lines = append(lines, line)
		if strings.HasPrefix(line, "id: ") {
			lastID = strings.TrimPrefix(line, "id: ")
			events++
		}
	}
	return lines, lastID
}

func (c *sseConn) close() { c.resp.Body.Close() }

// TestRouterSSEResume (satellite S3): Last-Event-ID resume works through
// the router hop — replayed events, and the ": resume gap" diagnostic when
// the resume point fell out of the worker's history ring, all survive
// forwarding.
func TestRouterSSEResume(t *testing.T) {
	dep, _ := smallDeployment(t)
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Each worker session keeps a fixed 256-event resume history; the gap
	// path below is forced by publishing past it.
	const resumeHistory = 256
	routerBase, _ := bootFleet(t, 3, config{})
	depID := register(t, routerBase, buf.Bytes())

	openBody, err := json.Marshal(server.StreamOpenRequest{Deployment: depID, Tag: "obj-sse", MaxSpeed: 2, MinStay: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerBase+"/v1/stream", "application/json", bytes.NewReader(openBody))
	if err != nil {
		t.Fatal(err)
	}
	var opened map[string]any
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream open status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &opened); err != nil {
		t.Fatal(err)
	}
	sessID, _ := opened["id"].(string)
	if sessID == "" {
		t.Fatalf("stream open returned %s", raw)
	}

	feed := func(tm int) {
		t.Helper()
		body := fmt.Sprintf(`{"readings":[{"time":%d,"readers":[2]}]}`, tm)
		resp, err := http.Post(routerBase+"/v1/stream/"+sessID+"/readings", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readings status = %d: %s", resp.StatusCode, b)
		}
	}

	// Live phase: subscribe, receive the first three deltas, note the last
	// event id, drop the connection.
	conn := openSSE(t, routerBase, sessID, "")
	tm := 0
	for ; tm < 3; tm++ {
		feed(tm)
	}
	lines, lastID := conn.readUntil(t, 3)
	conn.close()
	if lastID != "3" {
		t.Fatalf("last event id after 3 deltas = %q, want 3 (lines %q)", lastID, lines)
	}
	var connected bool
	for _, l := range lines {
		if strings.HasPrefix(l, ": connected") {
			connected = true
		}
	}
	if !connected {
		t.Fatalf("the hub's ': connected' comment did not survive the router hop: %q", lines)
	}

	// Two more events land while nobody is subscribed.
	for ; tm < 5; tm++ {
		feed(tm)
	}

	// Resume from id 3: events 4 and 5 replay, in order, with no gap
	// diagnostic — the history ring still holds them.
	conn = openSSE(t, routerBase, sessID, lastID)
	lines, lastID = conn.readUntil(t, 2)
	conn.close()
	var ids []string
	for _, l := range lines {
		if strings.HasPrefix(l, "id: ") {
			ids = append(ids, strings.TrimPrefix(l, "id: "))
		}
		if strings.HasPrefix(l, ": resume gap") {
			t.Fatalf("unexpected resume gap on an in-window resume: %q", lines)
		}
	}
	if strings.Join(ids, ",") != "4,5" || lastID != "5" {
		t.Fatalf("resumed events = %v (last %q), want [4 5]", ids, lastID)
	}

	// Push the history window past id 2, then resume from 1: the worker
	// flags the gap and the comment must reach the client through the
	// router.
	for ; tm < resumeHistory+3; tm++ {
		feed(tm)
	}
	conn = openSSE(t, routerBase, sessID, "1")
	lines, _ = conn.readUntil(t, 1)
	conn.close()
	var sawGap bool
	for _, l := range lines {
		if strings.HasPrefix(l, ": resume gap") {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatalf("': resume gap' comment did not survive the router hop: %q", lines)
	}
}
