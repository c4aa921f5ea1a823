package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/dataset"
)

// streamHarness boots a server with the given options and registers the test
// deployment, returning the base URL, the server itself (for shutdown and
// reaper checks), the deployment id, and the System for generating readings.
func streamHarness(t *testing.T, opts Options) (base string, srv *Server, depID string, sys *rfidclean.System) {
	t.Helper()
	depJSON, sys := testDeployment(t)
	srv = openServer(t, opts)
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
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
	return ts.URL, srv, created["id"], sys
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func openStream(t *testing.T, base, depID string) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/stream", StreamOpenRequest{
		Deployment: depID, MaxSpeed: 2, MinStay: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open stream status = %d: %s", resp.StatusCode, body)
	}
	var created map[string]string
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created["id"]
}

func testReadings(t *testing.T, sys *rfidclean.System, seed uint64, duration int) rfidclean.ReadingSequence {
	t.Helper()
	rng := rfidclean.NewRNG(seed)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(duration), rng)
	if err != nil {
		t.Fatal(err)
	}
	return rfidclean.GenerateReadings(truth, sys.Truth, rng)
}

// offlineFinalDistribution cleans the full sequence offline under LenientEnd
// and returns the last timestamp's marginal keyed by location name — the
// reference answer the streaming filter must converge to.
func offlineFinalDistribution(t *testing.T, sys *rfidclean.System, readings rfidclean.ReadingSequence) map[string]float64 {
	t.Helper()
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cleaned.StayDistribution(len(readings) - 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64)
	for loc, p := range dist {
		if p > 0 {
			want[sys.Plan.Location(loc).Name] = p
		}
	}
	return want
}

// streamStatus GETs the session, optionally with ?top=k (k <= 0 omits it).
func streamStatus(t *testing.T, base, sid string, top int) StreamStatus {
	t.Helper()
	url := base + "/v1/stream/" + sid
	if top > 0 {
		url += fmt.Sprintf("?top=%d", top)
	}
	var st StreamStatus
	if code := getJSON(t, url, &st); code != http.StatusOK {
		t.Fatalf("stream status = %d", code)
	}
	return st
}

// feedOneByOne posts each reading in its own request — the live-tracking
// access pattern — and returns the final status.
func feedOneByOne(t *testing.T, base, sid string, readings rfidclean.ReadingSequence) StreamStatus {
	t.Helper()
	var st StreamStatus
	for i, r := range readings {
		resp, body := postJSON(t, base+"/v1/stream/"+sid+"/readings", StreamReadingsRequest{
			Readings: []rfidclean.Reading{r},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reading %d status = %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Time != i || st.Readings != i+1 {
			t.Fatalf("after reading %d: status %+v", i, st)
		}
	}
	return st
}

// checkDistribution asserts a streamed Current distribution matches the
// offline reference within floating-point noise.
func checkDistribution(t *testing.T, got []LocationProb, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("distribution support: got %v, want %v", got, want)
	}
	for i, lp := range got {
		w, ok := want[lp.Location]
		if !ok {
			t.Fatalf("unexpected location %q in %v", lp.Location, got)
		}
		if math.Abs(lp.P-w) > 1e-9 {
			t.Errorf("P(%s) = %v, offline ct-graph says %v", lp.Location, lp.P, w)
		}
		if i > 0 && lp.P > got[i-1].P {
			t.Errorf("distribution not sorted descending: %v", got)
		}
	}
}

// TestStreamEndToEnd is the tentpole acceptance test: feed a sequence one
// timestamp at a time through the HTTP session API and check the final
// filtered distribution equals the offline ct-graph's last-timestamp marginal
// under LenientEnd. Then smooth, query the stored trajectory, and close.
func TestStreamEndToEnd(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 77, 60)
	want := offlineFinalDistribution(t, sys, readings)
	sid := openStream(t, base, depID)

	// A fresh session has observed nothing.
	if st := streamStatus(t, base, sid, 0); st.Time != -1 || len(st.Current) != 0 {
		t.Fatalf("fresh session status = %+v", st)
	}

	st := feedOneByOne(t, base, sid, readings)
	if st.Readings != len(readings) || st.Frontier <= 0 || st.Dead {
		t.Fatalf("final status = %+v", st)
	}

	// The filtered distribution at the last timestamp IS the smoothed one:
	// there is no future left to condition on.
	st = streamStatus(t, base, sid, 0)
	checkDistribution(t, st.Current, want)

	// ?top=1 returns the head of the same ranking.
	top := streamStatus(t, base, sid, 1)
	if len(top.Current) != 1 || top.Current[0] != st.Current[0] {
		t.Fatalf("top=1 gave %v, want head of %v", top.Current, st.Current)
	}

	// Mid-session smoothing stores a queryable ct-graph and keeps the
	// session open.
	resp, body := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("smooth status = %d: %s", resp.StatusCode, body)
	}
	var smoothed CleanResponse
	if err := json.Unmarshal(body, &smoothed); err != nil {
		t.Fatal(err)
	}
	if smoothed.ID == "" || smoothed.Nodes == 0 {
		t.Fatalf("smooth response = %+v", smoothed)
	}
	var stay []LocationProb
	url := fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, smoothed.ID, len(readings)-1)
	if code := getJSON(t, url, &stay); code != http.StatusOK {
		t.Fatalf("stay on smoothed trajectory = %d", code)
	}
	checkDistribution(t, stay, want)

	// Closing smooths once more by default and then the session is gone.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/stream/"+sid, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var closed StreamCloseResponse
	if err := json.NewDecoder(dresp.Body).Decode(&closed); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || closed.Trajectory == nil || closed.Trajectory.ID == "" {
		t.Fatalf("close status = %d, body %+v", dresp.StatusCode, closed)
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s", base, closed.Trajectory.ID), nil); code != http.StatusOK {
		t.Fatalf("close-time trajectory not queryable (%d)", code)
	}
	if code := getJSON(t, base+"/v1/stream/"+sid, nil); code != http.StatusGone {
		t.Fatalf("closed session answered %d, want 410 Gone", code)
	}

	// The stream metrics series are all exposed.
	m := scrape(t, base)
	for _, series := range []string{
		"rfidclean_stream_sessions",
		`rfidclean_stream_readings_total{outcome="ok"}`,
		"rfidclean_stream_observe_duration_seconds_count",
		"rfidclean_stream_reaped_total",
		"rfidclean_stream_evicted_total",
		`rfidclean_clean_requests_total{mode="stream",outcome="ok"} 2`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}

// TestStreamBatchMatchesOneByOne: posting readings in chunks lands on the
// same filtered distribution as posting them one at a time.
func TestStreamBatchMatchesOneByOne(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 21, 40)

	one := openStream(t, base, depID)
	feedOneByOne(t, base, one, readings)

	chunked := openStream(t, base, depID)
	for i := 0; i < len(readings); i += 7 {
		end := i + 7
		if end > len(readings) {
			end = len(readings)
		}
		resp, body := postJSON(t, base+"/v1/stream/"+chunked+"/readings", StreamReadingsRequest{
			Readings: readings[i:end],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk at %d status = %d: %s", i, resp.StatusCode, body)
		}
	}

	a := streamStatus(t, base, one, 0)
	b := streamStatus(t, base, chunked, 0)
	if len(a.Current) != len(b.Current) {
		t.Fatalf("support differs: %v vs %v", a.Current, b.Current)
	}
	for i := range a.Current {
		if a.Current[i].Location != b.Current[i].Location || math.Abs(a.Current[i].P-b.Current[i].P) > 1e-12 {
			t.Fatalf("distributions differ at %d: %v vs %v", i, a.Current, b.Current)
		}
	}
}

// TestStreamValidation covers the typed rejections: bad opens, duplicate and
// out-of-order timestamps (409), gaps (422), and routing errors.
func TestStreamValidation(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 5, 20)

	// Open-time validation.
	for name, tc := range map[string]struct {
		req  StreamOpenRequest
		want int
	}{
		"unknown deployment": {StreamOpenRequest{Deployment: "d999", MaxSpeed: 2}, http.StatusNotFound},
		"zero speed":         {StreamOpenRequest{Deployment: depID}, http.StatusBadRequest},
	} {
		if resp, _ := postJSON(t, base+"/v1/stream", tc.req); resp.StatusCode != tc.want {
			t.Errorf("%s: open status = %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(base + "/v1/stream"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/stream = %d, want 405", resp.StatusCode)
		}
	}

	// An open body still carrying the retired "beam" field is decoded like
	// any body with an unknown field: the session is exact, answering
	// bit-identically to one opened without it.
	resp, body := postJSON(t, base+"/v1/stream", map[string]any{
		"deployment": depID, "maxSpeed": 2, "minStay": 5, "beam": 3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open with beam = %d: %s", resp.StatusCode, body)
	}
	var created map[string]string
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	withBeam, exact := created["id"], openStream(t, base, depID)
	feedOneByOne(t, base, withBeam, readings)
	feedOneByOne(t, base, exact, readings)
	got, want := streamStatus(t, base, withBeam, 0), streamStatus(t, base, exact, 0)
	if got.Frontier != want.Frontier || len(got.Current) != len(want.Current) {
		t.Fatalf("beam session status %+v, exact %+v", got, want)
	}
	for i := range want.Current {
		if got.Current[i] != want.Current[i] {
			t.Fatalf("entry %d: beam session %+v, exact %+v", i, got.Current[i], want.Current[i])
		}
	}

	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings[:3])

	post := func(rs ...rfidclean.Reading) int {
		resp, _ := postJSON(t, base+"/v1/stream/"+sid+"/readings", StreamReadingsRequest{Readings: rs})
		return resp.StatusCode
	}
	// Duplicate, out-of-order, gap, empty.
	if code := post(readings[2]); code != http.StatusConflict {
		t.Errorf("duplicate timestamp status = %d, want 409", code)
	}
	if code := post(rfidclean.Reading{Time: 0, Readers: readings[0].Readers}); code != http.StatusConflict {
		t.Errorf("out-of-order timestamp status = %d, want 409", code)
	}
	if code := post(rfidclean.Reading{Time: 7, Readers: readings[7].Readers}); code != http.StatusUnprocessableEntity {
		t.Errorf("timestamp gap status = %d, want 422", code)
	}
	if code := post(); code != http.StatusBadRequest {
		t.Errorf("empty readings status = %d, want 400", code)
	}
	// A mid-batch rejection keeps the already-observed prefix.
	if code := post(readings[3], readings[3]); code != http.StatusConflict {
		t.Errorf("mid-batch duplicate status = %d, want 409", code)
	}
	if st := streamStatus(t, base, sid, 0); st.Readings != 4 || st.Time != 3 {
		t.Errorf("prefix after mid-batch rejection: %+v", st)
	}

	// Routing.
	if code := getJSON(t, base+"/v1/stream/s999", nil); code != http.StatusNotFound {
		t.Errorf("unknown session status = %d", code)
	}
	if code := getJSON(t, base+"/v1/stream/"+sid+"/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown op status = %d", code)
	}
	if code := getJSON(t, base+"/v1/stream/"+sid+"?top=0", nil); code != http.StatusBadRequest {
		t.Errorf("bad top status = %d", code)
	}
	if resp, _ := postJSON(t, base+"/v1/stream/"+sid, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to session root = %d, want 405", resp.StatusCode)
	}

	// Smoothing an empty session is a 422.
	empty := openStream(t, base, depID)
	if resp, _ := postJSON(t, base+"/v1/stream/"+empty+"/smooth", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("smooth empty session = %d, want 422", resp.StatusCode)
	}
}

// TestStreamDeadEnd forces a constraint dead end over HTTP. The deployment
// is three rooms in a row (A-B-C, doors only A-B and B-C) with readers only
// in A and C, and the rooms are wide enough that neither reader's range
// (MinorRadius = 4m) reaches a neighboring room — so an A-only reading pins
// the object to A and a C-only reading to C. Jumping A to C in one timestep
// has no door path, the session dies with 422, the accepted prefix stays
// smoothable — to exactly what /v1/clean answers over it — and further
// readings get 410.
func TestStreamDeadEnd(t *testing.T) {
	b := rfidclean.NewMapBuilder()
	ra := b.AddLocation("a", rfidclean.Room, 0, rfidclean.RectWH(0, 0, 10, 6))
	rb := b.AddLocation("b", rfidclean.Room, 0, rfidclean.RectWH(10, 0, 10, 6))
	rc := b.AddLocation("c", rfidclean.Room, 0, rfidclean.RectWH(20, 0, 10, 6))
	b.AddDoor(ra, rb, rfidclean.Pt(10, 3), 1)
	b.AddDoor(rb, rc, rfidclean.Pt(20, 3), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := &rfidclean.Deployment{
		Name: "row",
		Plan: plan,
		Readers: []rfidclean.Reader{
			{ID: 0, Name: "r-a", Floor: 0, Pos: rfidclean.Pt(5, 3)},
			{ID: 1, Name: "r-c", Floor: 0, Pos: rfidclean.Pt(25, 3)},
		},
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           0.5,
		CalibrationSamples: 30,
		Seed:               3,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	srv := openServer(t, Options{})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	base := ts.URL
	resp0, err := http.Post(base+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp0.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	sid := openStream(t, base, created["id"])

	inA := rfidclean.NewReaderSet(0)
	inC := rfidclean.NewReaderSet(1)
	post := func(tm int, rs rfidclean.ReaderSet) (int, []byte) {
		resp, body := postJSON(t, base+"/v1/stream/"+sid+"/readings", StreamReadingsRequest{
			Readings: []rfidclean.Reading{{Time: tm, Readers: rs}},
		})
		return resp.StatusCode, body
	}
	const prefix = 6
	for i := 0; i < prefix; i++ {
		if code, body := post(i, inA); code != http.StatusOK {
			t.Fatalf("room-A reading %d status = %d: %s", i, code, body)
		}
	}
	code, body := post(prefix, inC)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("teleport reading status = %d (%s), want 422", code, body)
	}
	// The session is dead: further readings are refused ...
	if code, _ := post(prefix, inA); code != http.StatusGone {
		t.Errorf("reading after dead end status = %d, want 410", code)
	}
	if st := streamStatus(t, base, sid, 0); !st.Dead || st.Readings != prefix {
		t.Errorf("dead session status = %+v", st)
	}
	// ... but the prefix still smooths, to exactly what /v1/clean answers
	// over the same readings.
	resp, body := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("smoothing dead session prefix = %d: %s", resp.StatusCode, body)
	}
	var smoothed CleanResponse
	if err := json.Unmarshal(body, &smoothed); err != nil {
		t.Fatal(err)
	}
	prefixReadings := make(rfidclean.ReadingSequence, prefix)
	for i := range prefixReadings {
		prefixReadings[i] = rfidclean.Reading{Time: i, Readers: inA}
	}
	checkStaysMatchClean(t, base, smoothed.ID, CleanRequest{
		Deployment: created["id"], Readings: prefixReadings, MaxSpeed: 2, MinStay: 5,
	})
}

// checkStaysMatchClean cleans req through /v1/clean and asserts the stored
// trajectory id answers every stay query with the same bytes.
func checkStaysMatchClean(t *testing.T, base, id string, req CleanRequest) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/clean", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("reference clean status = %d: %s", resp.StatusCode, body)
	}
	var ref CleanResponse
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	for tau := range req.Readings {
		code, got := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, id, tau))
		refCode, want := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, ref.ID, tau))
		if code != http.StatusOK || refCode != http.StatusOK {
			t.Fatalf("stay t=%d status = %d (reference %d)", tau, code, refCode)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stay t=%d: smoothed %s, /v1/clean %s", tau, got, want)
		}
	}
}

// TestStreamSmoothAfterCacheCycle smooths a session whose constraint-cache
// entry was evicted after it opened. Inference is deterministic, so the set
// the session pinned at open is still the right one: the smooth must reuse
// the live state and store what /v1/clean — which re-infers the set — stores.
func TestStreamSmoothAfterCacheCycle(t *testing.T) {
	base, srv, depID, sys := streamHarness(t, Options{})
	srv.lookupDeployment(depID).cache.maxEntries = 1
	readings := testReadings(t, sys, 77, 40)
	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings)

	// A clean under other parameters takes the cache's only slot.
	if resp, body := postJSON(t, base+"/v1/clean", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 3, MinStay: 4,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("evicting clean status = %d: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("smooth status = %d: %s", resp.StatusCode, body)
	}
	var smoothed CleanResponse
	if err := json.Unmarshal(body, &smoothed); err != nil {
		t.Fatal(err)
	}
	checkStaysMatchClean(t, base, smoothed.ID, CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5,
	})
	// Three inferences: the session's open, the evicting clean and the
	// reference clean, each a miss in a one-entry cache.
	mustContain(t, scrape(t, base),
		"rfidclean_constraint_cache_misses_total 3",
		`rfidclean_stream_smooths_total{mode="incremental"} 1`)
}

// TestStreamReadingBudget: the per-session reading budget answers 429 and
// the accepted prefix still smooths.
func TestStreamReadingBudget(t *testing.T) {
	base, srv, depID, sys := streamHarness(t, Options{})
	srv.sessions.maxReadings = 3
	readings := testReadings(t, sys, 9, 10)
	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings[:3])

	resp, _ := postJSON(t, base+"/v1/stream/"+sid+"/readings", StreamReadingsRequest{
		Readings: readings[3:4],
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget reading status = %d, want 429", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("smoothing at budget = %d", resp.StatusCode)
	}
}

// TestStreamEviction: at the session cap the least-recently-active session
// is evicted to admit a new one.
func TestStreamEviction(t *testing.T) {
	base, srv, depID, _ := streamHarness(t, Options{})
	srv.sessions.maxSessions = 2
	first := openStream(t, base, depID)
	time.Sleep(2 * time.Millisecond) // order the activity stamps
	second := openStream(t, base, depID)
	time.Sleep(2 * time.Millisecond)
	// Touch the first so the second is now the stalest.
	streamStatus(t, base, first, 0)
	time.Sleep(2 * time.Millisecond)
	third := openStream(t, base, depID)

	if srv.sessions.count() != 2 {
		t.Fatalf("open sessions = %d, want 2", srv.sessions.count())
	}
	if code := getJSON(t, base+"/v1/stream/"+second, nil); code != http.StatusGone {
		t.Errorf("evicted session answered %d, want 410 Gone", code)
	}
	for _, id := range []string{first, third} {
		if code := getJSON(t, base+"/v1/stream/"+id, nil); code != http.StatusOK {
			t.Errorf("session %s evicted, want kept (%d)", id, code)
		}
	}
	if !strings.Contains(scrape(t, base), "rfidclean_stream_evicted_total 1") {
		t.Error("metrics missing the eviction")
	}
}

// TestStreamReaperAndClose proves the idle reaper fires and that Server.Close
// drains it deterministically and refuses new sessions.
func TestStreamReaperAndClose(t *testing.T) {
	base, srv, depID, _ := streamHarness(t, Options{})
	srv.sessions.ttl = 30 * time.Millisecond
	openStream(t, base, depID)
	openStream(t, base, depID)

	deadline := time.Now().Add(5 * time.Second)
	for srv.sessions.count() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never fired; %d sessions still open", srv.sessions.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(scrape(t, base), "rfidclean_stream_reaped_total 2") {
		t.Error("metrics missing the reaps")
	}

	// Close is idempotent, waits for the reaper goroutine, and flips opens
	// to 503.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.sessions.done:
	default:
		t.Fatal("reaper goroutine still running after Close")
	}
	resp, _ := postJSON(t, base+"/v1/stream", StreamOpenRequest{Deployment: depID, MaxSpeed: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open after Close = %d, want 503", resp.StatusCode)
	}
}

// TestStreamConcurrentSessions runs independent sessions in parallel — under
// -race this is the locking-discipline check for the session store and the
// per-session mutexes — and checks each one still lands exactly on its own
// offline reference distribution.
func TestStreamConcurrentSessions(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})

	const n = 6
	type tc struct {
		readings rfidclean.ReadingSequence
		want     map[string]float64
	}
	cases := make([]tc, n)
	for i := range cases {
		r := testReadings(t, sys, uint64(100+i), 40)
		cases[i] = tc{readings: r, want: offlineFinalDistribution(t, sys, r)}
	}

	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sid := openStream(t, base, depID)
			for j, r := range cases[i].readings {
				resp, body := postJSON(t, base+"/v1/stream/"+sid+"/readings", StreamReadingsRequest{
					Readings: []rfidclean.Reading{r},
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %d reading %d status = %d: %s", i, j, resp.StatusCode, body)
					return
				}
			}
			st := streamStatus(t, base, sid, 0)
			checkDistribution(t, st.Current, cases[i].want)
			resp, _ := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("session %d smooth status = %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	// All sessions filtered under one deployment and one parameter set:
	// constraint inference ran exactly once.
	if !strings.Contains(scrape(t, base), "rfidclean_constraint_cache_misses_total 1") {
		t.Error("constraint inference ran more than once across concurrent sessions")
	}
}

// TestStreamHealthz: open sessions are visible in the health payload.
func TestStreamHealthz(t *testing.T) {
	base, _, depID, _ := streamHarness(t, Options{})
	openStream(t, base, depID)
	openStream(t, base, depID)
	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health["sessions"].(float64) != 2 {
		t.Fatalf("healthz sessions = %v, want 2", health["sessions"])
	}
}

// TestStreamIncrementalSmoothMatchesBatchClean is the server-level half of
// the bit-identity property: smoothing a live session (which reuses the
// incremental build state) must store a trajectory whose marginals equal the
// batch /v1/clean answer over the same readings, and the smooth must be
// counted under the incremental mode.
func TestStreamIncrementalSmoothMatchesBatchClean(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 131, 45)

	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings)
	resp, body := postJSON(t, base+"/v1/stream/"+sid+"/smooth", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("smooth status = %d: %s", resp.StatusCode, body)
	}
	var smoothed CleanResponse
	if err := json.Unmarshal(body, &smoothed); err != nil {
		t.Fatal(err)
	}

	// Batch clean under the same constraints and LenientEnd (the stream
	// smoothing semantics).
	resp, body = postJSON(t, base+"/v1/clean", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("batch clean status = %d: %s", resp.StatusCode, body)
	}
	var batch CleanResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if smoothed.Nodes != batch.Nodes || smoothed.Edges != batch.Edges {
		t.Fatalf("graph shape differs: stream %+v vs batch %+v", smoothed, batch)
	}
	for _, tau := range []int{0, 1, len(readings) / 2, len(readings) - 1} {
		var a, b []LocationProb
		if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, smoothed.ID, tau), &a); code != http.StatusOK {
			t.Fatalf("stream stay t=%d status = %d", tau, code)
		}
		if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, batch.ID, tau), &b); code != http.StatusOK {
			t.Fatalf("batch stay t=%d status = %d", tau, code)
		}
		if len(a) != len(b) {
			t.Fatalf("t=%d support differs: %v vs %v", tau, a, b)
		}
		for i := range a {
			// JSON float round-trips are exact, so equality here is bit
			// equality of the underlying marginals.
			if a[i] != b[i] {
				t.Errorf("t=%d entry %d: stream %+v vs batch %+v", tau, i, a[i], b[i])
			}
		}
	}

	if m := scrape(t, base); !strings.Contains(m, `rfidclean_stream_smooths_total{mode="incremental"} 1`) {
		t.Errorf("metrics missing the incremental smooth count")
	}
}

// TestStreamBinaryCodec drives the readings POST and status GET through the
// binary codec and checks the answers agree bit-for-bit with a JSON twin
// session fed the same readings.
func TestStreamBinaryCodec(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 909, 30)

	jsonSid := openStream(t, base, depID)
	feedOneByOne(t, base, jsonSid, readings)
	want := streamStatus(t, base, jsonSid, 0)

	binSid := openStream(t, base, depID)
	for i := 0; i < len(readings); i += 5 {
		end := i + 5
		if end > len(readings) {
			end = len(readings)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/stream/"+binSid+"/readings",
			bytes.NewReader(EncodeStreamReadings(readings[i:end])))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set("Accept", ContentTypeBinary)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("binary chunk at %d status = %d", i, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("response Content-Type = %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		st, err := DecodeStreamStatus(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if st.Time != end-1 || st.Readings != end {
			t.Fatalf("binary status after chunk at %d = %+v", i, st)
		}
	}

	// GET with Accept negotiation.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/stream/"+binSid, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary GET status = %d", resp.StatusCode)
	}
	got, err := DecodeStreamStatus(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Readings != want.Readings || got.Frontier != want.Frontier ||
		len(got.Current) != len(want.Current) {
		t.Fatalf("binary status %+v, JSON twin %+v", got, want)
	}
	for i := range want.Current {
		if got.Current[i].Location != want.Current[i].Location ||
			math.Float64bits(got.Current[i].P) != math.Float64bits(want.Current[i].P) {
			t.Errorf("entry %d: binary %+v vs JSON %+v", i, got.Current[i], want.Current[i])
		}
	}

	// A malformed binary body is a plain 400, not a hang or a 500.
	req, err = http.NewRequest(http.MethodPost, base+"/v1/stream/"+binSid+"/readings",
		bytes.NewReader([]byte{0x01, 0x02, 0x03}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage binary body status = %d, want 400", resp.StatusCode)
	}
}

// TestStreamCloseSmoothParam: the ?smooth= flag accepts only yes/no spellings;
// junk is 400 and leaves the session open (a typo like ?smooth=nope used to
// silently smooth — the opposite of what was asked).
func TestStreamCloseSmoothParam(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	readings := testReadings(t, sys, 14, 10)

	del := func(sid, query string) (int, StreamCloseResponse) {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/stream/"+sid+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StreamCloseResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings)
	for _, junk := range []string{"?smooth=nope", "?smooth=yess", "?smooth=2"} {
		if code, _ := del(sid, junk); code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", junk, code)
		}
	}
	// The rejected closes must not have closed the session.
	if st := streamStatus(t, base, sid, 0); st.Readings != len(readings) {
		t.Fatalf("session state after rejected closes: %+v", st)
	}
	if code, out := del(sid, "?smooth=no"); code != http.StatusOK || out.Trajectory != nil {
		t.Fatalf("smooth=no close: status %d, %+v", code, out)
	}

	sid = openStream(t, base, depID)
	feedOneByOne(t, base, sid, readings)
	if code, out := del(sid, "?smooth=TRUE"); code != http.StatusOK || out.Trajectory == nil {
		t.Fatalf("smooth=TRUE close: status %d, %+v", code, out)
	}
}

// TestStreamStatusTopParam: unparseable and non-positive ?top= values are
// typed 400s, not silently treated as "no cap".
func TestStreamStatusTopParam(t *testing.T) {
	base, _, depID, sys := streamHarness(t, Options{})
	sid := openStream(t, base, depID)
	feedOneByOne(t, base, sid, testReadings(t, sys, 3, 5))
	for _, junk := range []string{"abc", "1.5", "0", "-3", "%20"} {
		resp, err := http.Get(base + "/v1/stream/" + sid + "?top=" + junk)
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?top=%s status = %d, want 400", junk, resp.StatusCode)
		} else if decErr != nil || e.Error == "" {
			t.Errorf("?top=%s: missing apiError body (%v)", junk, decErr)
		}
	}
	if st := streamStatus(t, base, sid, 2); len(st.Current) > 2 {
		t.Errorf("?top=2 returned %d entries", len(st.Current))
	}
}

// TestEvictOldestDeterministic pins the cap-eviction tie-break: when every
// session has the same activity stamp (a burst of opens within the clock's
// resolution), the victim is the numerically lowest session id — not
// whatever the map iterator happens to visit first — and its subscribers get
// a terminal "evicted" close event.
func TestEvictOldestDeterministic(t *testing.T) {
	base, srv, depID, _ := streamHarness(t, Options{})
	st := srv.sessions
	// The flattened stamps below are ancient, but the reaper's first tick
	// is a minute after the first open, far past this test.
	st.maxSessions = 3
	for round := 0; round < 8; round++ {
		for st.count() < 3 {
			openStream(t, base, depID)
		}
		// Flatten every stamp so only the tie-break decides.
		st.mu.Lock()
		lowest, lowestID := int(^uint(0)>>1), ""
		for id, s := range st.sessions {
			s.lastActive.Store(42)
			if n, ok := idNum("s", id); ok && n < lowest {
				lowest, lowestID = n, id
			}
		}
		victim := st.sessions[lowestID]
		st.mu.Unlock()
		sub, _, _ := victim.hub.subscribe(0, false)

		openStream(t, base, depID) // at the cap: must displace the victim
		if st.get(lowestID) != nil {
			t.Fatalf("round %d: session %s survived eviction", round, lowestID)
		}
		if !st.isGone(lowestID) {
			t.Fatalf("round %d: evicted session %s was not tombstoned", round, lowestID)
		}
		if got := srv.metrics.streamSessions.Value(); got != 3 {
			t.Fatalf("round %d: session gauge = %d, want 3", round, got)
		}
		ev, ok := <-sub.ch
		if !ok || ev.kind != eventKindClose || !strings.Contains(string(ev.data), closeReasonEvicted) {
			t.Fatalf("round %d: victim subscriber got %+v ok=%v, want evicted close", round, ev, ok)
		}
	}
}

// TestTombstoneRingWraparound closes far more sessions than the tombstone
// ring holds: recent closures still answer 410 Gone, while ids older than
// the ring honestly degrade to 404.
func TestTombstoneRingWraparound(t *testing.T) {
	base, srv, _, _ := streamHarness(t, Options{})
	st := srv.sessions
	const closed = sessionTombstones + 904
	st.mu.Lock()
	for i := 1; i <= closed; i++ {
		st.markGoneLocked(fmt.Sprintf("s%d", i))
	}
	ringLen, goneLen := len(st.goneRing), len(st.gone)
	st.mu.Unlock()
	if ringLen != sessionTombstones || goneLen != sessionTombstones {
		t.Fatalf("ring %d / set %d entries, want %d each", ringLen, goneLen, sessionTombstones)
	}
	// The oldest 904 fell off; everything newer is still remembered.
	if st.isGone("s1") || st.isGone(fmt.Sprintf("s%d", closed-sessionTombstones)) {
		t.Error("pre-wraparound tombstones still present")
	}
	if !st.isGone(fmt.Sprintf("s%d", closed-sessionTombstones+1)) || !st.isGone(fmt.Sprintf("s%d", closed)) {
		t.Error("post-wraparound tombstones missing")
	}
	// And the HTTP mapping: remembered id → 410, forgotten id → 404.
	for _, tc := range []struct {
		id   string
		want int
	}{
		{fmt.Sprintf("s%d", closed), http.StatusGone},
		{"s1", http.StatusNotFound},
	} {
		resp, err := http.Get(base + "/v1/stream/" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET closed session %s = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}
}

// TestReapVsInflightReadings races the idle reaper against in-flight
// readings POSTs and live SSE subscribers on several sessions at once (run
// under -race in CI). Every feeder must eventually lose its session to the
// reaper and see 410, never a hang, panic, or torn state.
func TestReapVsInflightReadings(t *testing.T) {
	base, srv, depID, sys := streamHarness(t, Options{})
	// No heartbeat may keep a watched session alive past the TTL.
	srv.sseHeartbeat, srv.sessions.ttl = time.Hour, 20*time.Millisecond
	readings := testReadings(t, sys, 33, 120)
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSONQuiet(base+"/v1/stream", StreamOpenRequest{Deployment: depID, MaxSpeed: 2, MinStay: 5})
			if resp == nil || resp.StatusCode != http.StatusCreated {
				errc <- fmt.Errorf("open failed: %s", body)
				return
			}
			var created map[string]string
			if err := json.Unmarshal(body, &created); err != nil {
				errc <- err
				return
			}
			sid := created["id"]
			// A subscriber whose stream the reaper will sever mid-watch.
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				resp, err := http.Get(base + "/v1/stream/" + sid + "/events")
				if err != nil {
					return
				}
				defer resp.Body.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := resp.Body.Read(buf); err != nil {
						return
					}
				}
			}()
			deadline := time.Now().Add(20 * time.Second)
			for i := 0; ; i++ {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("session %s: reaper never fired", sid)
					return
				}
				resp, body := postJSONQuiet(base+"/v1/stream/"+sid+"/readings",
					StreamReadingsRequest{Readings: readings[i%len(readings) : i%len(readings)+1]})
				switch {
				case resp == nil:
					errc <- fmt.Errorf("session %s: %s", sid, body)
					return
				case resp.StatusCode == http.StatusGone:
					<-drained // the reaper also ended the event stream
					return
				case resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusConflict:
					// Conflict: the wrapped reading index lapped the session.
				default:
					errc <- fmt.Errorf("session %s: POST %d = %d: %s", sid, i, resp.StatusCode, body)
					return
				}
				if i%10 == 9 {
					time.Sleep(25 * time.Millisecond) // idle past the TTL
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// postJSONQuiet is postJSON without t.Fatal, safe for use off the test
// goroutine; a nil response carries the error text in body.
func postJSONQuiet(url string, body any) (*http.Response, []byte) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return nil, []byte(err.Error())
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return nil, []byte(err.Error())
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, []byte(err.Error())
	}
	return resp, out.Bytes()
}

// fuzzHarness is the server the body fuzz targets post to: one holding the
// SYN1 deployment, driven in-process.
type fuzzHarness struct {
	srv   *Server
	depID string
	data  *dataset.Dataset
}

func newFuzzHarness(f *testing.F) *fuzzHarness {
	cfg := dataset.SYN1()
	d, err := dataset.Build("SYN1", cfg)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := (&rfidclean.Deployment{
		Name: "SYN1", Plan: d.Plan, Readers: d.Readers,
		Detection: cfg.Detection, CellSize: cfg.CellSize,
		CalibrationSamples: cfg.CalibrationSamples, Seed: cfg.Seed,
	}).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	h := &fuzzHarness{srv: openServer(f, Options{TraceBuffer: -1, FlightInterval: -1}), data: d}
	f.Cleanup(func() { h.srv.Close() })
	rec := h.serve(http.MethodPost, "/v1/deployments", raw)
	var created map[string]string
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		f.Fatalf("register SYN1 = %d: %s", rec.Code, rec.Body)
	}
	h.depID = created["id"]
	return h
}

func (h *fuzzHarness) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, req)
	return rec
}

// answer checks one response against the fuzz properties and decodes a 2xx
// body into ok: every answer below 500 that is not a 2xx must be a JSON
// apiError, and a 2xx must decode as the endpoint's response type.
func (h *fuzzHarness) answer(t *testing.T, what string, rec *httptest.ResponseRecorder, ok any) {
	t.Helper()
	switch {
	case rec.Code >= 500: // 5xx answers are outside the checked properties
	case rec.Code >= 200 && rec.Code < 300:
		if err := json.Unmarshal(rec.Body.Bytes(), ok); err != nil {
			t.Fatalf("%s: %d body %q does not decode: %v", what, rec.Code, rec.Body, err)
		}
	default:
		var e apiError
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: %d answered with Content-Type %q", what, rec.Code, ct)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: %d body %q is not an apiError (%v)", what, rec.Code, rec.Body, err)
		}
	}
}

// healthy fails unless /healthz still answers.
func (h *fuzzHarness) healthy(t *testing.T) {
	t.Helper()
	if rec := h.serve(http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", rec.Code, rec.Body)
	}
}

// FuzzStreamBodies posts fuzzed bytes as a stream open body and, when the
// open answers 201, fuzzed bytes as that session's JSON readings body,
// against a server holding the SYN1 deployment. The server must not panic;
// every answer below 500 that is not a 2xx must be a JSON apiError, and a
// 2xx must decode as the endpoint's response type; /healthz must still
// answer afterwards.
func FuzzStreamBodies(f *testing.F) {
	h := newFuzzHarness(f)
	depID := h.depID
	inst, err := h.data.Generate(10, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	syn1Readings, _ := json.Marshal(StreamReadingsRequest{Readings: inst[0].Readings})
	for _, open := range []any{
		StreamOpenRequest{Deployment: depID, MaxSpeed: 2, MinStay: 5},
		StreamOpenRequest{Deployment: depID, MaxSpeed: 2},
		StreamOpenRequest{Deployment: "d999", MaxSpeed: 2},
		StreamOpenRequest{Deployment: depID},
		map[string]any{"deployment": depID, "maxSpeed": 2, "minStay": 5, "beam": 3},
	} {
		body, _ := json.Marshal(open)
		f.Add(body, syn1Readings)
	}
	f.Fuzz(func(t *testing.T, open, readings []byte) {
		rec := h.serve(http.MethodPost, "/v1/stream", open)
		var created map[string]string
		h.answer(t, "open", rec, &created)
		if rec.Code == http.StatusCreated {
			sid := created["id"]
			var st StreamStatus
			h.answer(t, "readings", h.serve(http.MethodPost, "/v1/stream/"+sid+"/readings", readings), &st)
			if rec := h.serve(http.MethodDelete, "/v1/stream/"+sid+"?smooth=no", nil); rec.Code != http.StatusOK {
				t.Fatalf("close %s = %d: %s", sid, rec.Code, rec.Body)
			}
		}
		h.healthy(t)
	})
}

// FuzzCleanBodies posts fuzzed bytes as a POST /v1/clean body and as a POST
// /v1/clean/batch body, against a server holding the SYN1 deployment, with
// the properties of FuzzStreamBodies. In addition, the nodes, edges and
// bytes a 2xx answer reports for a trajectory must equal what
// GET /v1/trajectories/{id} then reports for it.
func FuzzCleanBodies(f *testing.F) {
	h := newFuzzHarness(f)
	depID := h.depID
	insts, err := h.data.Generate(10, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	seqs := []rfidclean.ReadingSequence{insts[0].Readings, insts[1].Readings}
	for _, pair := range [][2]any{
		{CleanRequest{Deployment: depID, Readings: seqs[0], MaxSpeed: 2, MinStay: 5},
			BatchCleanRequest{Deployment: depID, Sequences: seqs, MaxSpeed: 2, MinStay: 5}},
		{CleanRequest{Deployment: depID, Readings: seqs[0], Group: seqs[1:], MaxSpeed: 2, StrictEnd: true},
			BatchCleanRequest{Deployment: depID, Sequences: seqs, MaxSpeed: 2, TTCap: 3, StrictEnd: true}},
		{CleanRequest{Deployment: "d999", Readings: seqs[0], MaxSpeed: 2},
			BatchCleanRequest{Deployment: depID, MaxSpeed: 2}},
		{CleanRequest{Deployment: depID, Readings: seqs[0]},
			BatchCleanRequest{Deployment: depID, Sequences: []rfidclean.ReadingSequence{nil, seqs[1]}, MaxSpeed: 2}},
	} {
		clean, _ := json.Marshal(pair[0])
		batch, _ := json.Marshal(pair[1])
		f.Add(clean, batch)
	}

	// stored checks the size a clean reported against the stored graph's,
	// then deletes the trajectory so the store stays small.
	stored := func(t *testing.T, what string, got CleanResponse) {
		t.Helper()
		var want CleanResponse
		rec := h.serve(http.MethodGet, "/v1/trajectories/"+got.ID, nil)
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &want) != nil {
			t.Fatalf("%s: GET %s = %d: %s", what, got.ID, rec.Code, rec.Body)
		}
		if got != want {
			t.Fatalf("%s: answered %+v, stored %+v", what, got, want)
		}
		if rec := h.serve(http.MethodDelete, "/v1/trajectories/"+got.ID, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: DELETE %s = %d: %s", what, got.ID, rec.Code, rec.Body)
		}
	}
	f.Fuzz(func(t *testing.T, clean, batch []byte) {
		rec := h.serve(http.MethodPost, "/v1/clean", clean)
		var one CleanResponse
		h.answer(t, "clean", rec, &one)
		if rec.Code == http.StatusCreated {
			stored(t, "clean", one)
		}
		rec = h.serve(http.MethodPost, "/v1/clean/batch", batch)
		var slots []BatchCleanResult
		h.answer(t, "batch", rec, &slots)
		if rec.Code == http.StatusOK {
			for _, s := range slots {
				if s.ID != "" {
					stored(t, "batch slot", CleanResponse{ID: s.ID, Nodes: s.Nodes, Edges: s.Edges, Bytes: s.Bytes})
				}
			}
		}
		h.healthy(t)
	})
}
