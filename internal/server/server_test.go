package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/dataset"
)

// testDeployment returns a small serialized deployment and the System it
// describes (for generating readings).
func testDeployment(t testing.TB) ([]byte, *rfidclean.System) {
	t.Helper()
	b := rfidclean.NewMapBuilder()
	cor := b.AddLocation("corridor", rfidclean.Corridor, 0, rfidclean.RectWH(0, 0, 12, 3))
	lab := b.AddLocation("lab", rfidclean.Room, 0, rfidclean.RectWH(0, 3, 6, 5))
	office := b.AddLocation("office", rfidclean.Room, 0, rfidclean.RectWH(6, 3, 6, 5))
	b.AddDoor(cor, lab, rfidclean.Pt(3, 3), 1)
	b.AddDoor(cor, office, rfidclean.Pt(9, 3), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := &rfidclean.Deployment{
		Name: "test",
		Plan: plan,
		Readers: []rfidclean.Reader{
			{ID: 0, Name: "r-lab", Floor: 0, Pos: rfidclean.Pt(3, 5.5)},
			{ID: 1, Name: "r-office", Floor: 0, Pos: rfidclean.Pt(9, 5.5)},
			{ID: 2, Name: "r-cor", Floor: 0, Pos: rfidclean.Pt(6, 1.5)},
		},
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           0.5,
		CalibrationSamples: 30,
		Seed:               5,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sys, err := dep.System()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys
}

// openServer opens a Server, failing the test when Open does.
func openServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// harness spins up the server and registers the test deployment, returning
// the base URL, the deployment id, and readings for a known trajectory.
func harness(t *testing.T) (base string, depID string, sys *rfidclean.System, readings rfidclean.ReadingSequence) {
	t.Helper()
	depJSON, sys := testDeployment(t)
	ts := httptest.NewServer(openServer(t, Options{}))
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

	rng := rfidclean.NewRNG(77)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(90), rng)
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL, created["id"], sys, rfidclean.GenerateReadings(truth, sys.Truth, rng)
}

func postClean(t *testing.T, base string, req CleanRequest) (*http.Response, CleanResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/clean", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out CleanResponse
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServerEndToEnd(t *testing.T) {
	base, depID, _, readings := harness(t)

	// List deployments.
	var list []map[string]any
	if code := getJSON(t, base+"/v1/deployments", &list); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if len(list) != 1 {
		t.Fatalf("deployments = %v", list)
	}

	// Clean.
	resp, cleaned := postClean(t, base, CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean status = %d", resp.StatusCode)
	}
	if cleaned.Nodes == 0 || cleaned.Edges == 0 {
		t.Fatalf("empty graph: %+v", cleaned)
	}

	// Stay query.
	var stay []LocationProb
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=45", base, cleaned.ID), &stay); code != http.StatusOK {
		t.Fatalf("stay status = %d", code)
	}
	total := 0.0
	for _, lp := range stay {
		total += lp.P
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("stay distribution sums to %v", total)
	}
	if len(stay) > 1 && stay[0].P < stay[1].P {
		t.Errorf("stay answer not sorted")
	}

	// Pattern query.
	var match map[string]float64
	url := fmt.Sprintf("%s/v1/trajectories/%s/match?pattern=%s", base, cleaned.ID, "%3F+lab+%3F")
	if code := getJSON(t, url, &match); code != http.StatusOK {
		t.Fatalf("match status = %d", code)
	}
	if p := match["p"]; p < 0 || p > 1 {
		t.Errorf("match p = %v", p)
	}

	// Top-k.
	var top []TopTrajectory
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/top?k=3", base, cleaned.ID), &top); code != http.StatusOK {
		t.Fatalf("top status = %d", code)
	}
	if len(top) == 0 || len(top[0].Runs) == 0 {
		t.Fatalf("top = %v", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i].P > top[i-1].P {
			t.Errorf("top-k not sorted")
		}
	}

	// Occupancy.
	var occ []LocationProb
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/occupancy", base, cleaned.ID), &occ); code != http.StatusOK {
		t.Fatalf("occupancy status = %d", code)
	}
	total = 0
	for _, lp := range occ {
		total += lp.P
	}
	if total < 89.9 || total > 90.1 {
		t.Errorf("occupancy sums to %v, want ~90", total)
	}

	// Graph stats endpoint.
	var stats CleanResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s", base, cleaned.ID), &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Nodes != cleaned.Nodes {
		t.Errorf("stats mismatch")
	}

	// Delete, then queries 404.
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/trajectories/%s", base, cleaned.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=1", base, cleaned.ID), nil); code != http.StatusNotFound {
		t.Errorf("deleted trajectory still queryable (%d)", code)
	}
}

func TestServerGroupCleaning(t *testing.T) {
	base, depID, sys, readings := harness(t)
	rng := rfidclean.NewRNG(3)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(90), rng)
	if err != nil {
		t.Fatal(err)
	}
	second := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	_ = readings
	first := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	resp, cleaned := postClean(t, base, CleanRequest{
		Deployment: depID, Readings: first,
		Group:    []rfidclean.ReadingSequence{second},
		MaxSpeed: 2, MinStay: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("group clean status = %d", resp.StatusCode)
	}
	if cleaned.Nodes == 0 {
		t.Fatalf("empty group graph")
	}
}

func TestServerErrors(t *testing.T) {
	base, depID, _, readings := harness(t)

	// Bad deployment body.
	resp, err := http.Post(base+"/v1/deployments", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deployment status = %d", resp.StatusCode)
	}

	// Unknown deployment.
	if r, _ := postClean(t, base, CleanRequest{Deployment: "d999", Readings: readings, MaxSpeed: 2}); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown deployment status = %d", r.StatusCode)
	}
	// Missing speed.
	if r, _ := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("zero speed status = %d", r.StatusCode)
	}
	// Invalid readings.
	bad := rfidclean.ReadingSequence{{Time: 7}}
	if r, _ := postClean(t, base, CleanRequest{Deployment: depID, Readings: bad, MaxSpeed: 2}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid readings status = %d", r.StatusCode)
	}
	// Unknown trajectory.
	if code := getJSON(t, base+"/v1/trajectories/t999/stay?t=1", nil); code != http.StatusNotFound {
		t.Errorf("unknown trajectory status = %d", code)
	}
	// Clean something for the remaining checks.
	_, cleaned := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
	// Bad stay timestamp.
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=oops", base, cleaned.ID), nil); code != http.StatusBadRequest {
		t.Errorf("bad stay status = %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/stay?t=9999", base, cleaned.ID), nil); code != http.StatusBadRequest {
		t.Errorf("out-of-window stay status = %d", code)
	}
	// Missing pattern.
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/match", base, cleaned.ID), nil); code != http.StatusBadRequest {
		t.Errorf("missing pattern status = %d", code)
	}
	// Pattern naming an unknown location.
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/match?pattern=%s", base, cleaned.ID, "%3F+mars+%3F"), nil); code != http.StatusBadRequest {
		t.Errorf("unknown pattern location status = %d", code)
	}
	// Bad k.
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/top?k=0", base, cleaned.ID), nil); code != http.StatusBadRequest {
		t.Errorf("bad k status = %d", code)
	}
	// Unknown op.
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s/nope", base, cleaned.ID), nil); code != http.StatusNotFound {
		t.Errorf("unknown op status = %d", code)
	}
	// Wrong methods.
	resp, err = http.Post(fmt.Sprintf("%s/v1/trajectories/%s/stay?t=1", base, cleaned.ID), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to stay status = %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/deployments", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT deployments status = %d", presp.StatusCode)
	}
	gresp, err := http.Get(base + "/v1/clean")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET clean status = %d", gresp.StatusCode)
	}
}

// TestServerMatchPatternLongerThanWindow: a pattern whose run lengths
// exceed the trajectory's window answers {"p":0} at once rather than
// compiling an automaton with one state per unit of run length, which for
// this pattern would exhaust the daemon's memory.
func TestServerMatchPatternLongerThanWindow(t *testing.T) {
	base, depID, _, readings := harness(t)
	_, cleaned := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
	start := time.Now()
	code, body := getBody(t, fmt.Sprintf("%s/v1/trajectories/%s/match?pattern=%s", base, cleaned.ID, "%3F+lab%5B1000000000%5D+%3F"))
	if code != http.StatusOK || strings.TrimSpace(string(body)) != `{"p":0}` {
		t.Fatalf("match ? lab[1000000000] ? = %d %s, want 200 {\"p\":0}", code, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("over-long pattern took %s to answer", elapsed)
	}
}

func TestServerBatchClean(t *testing.T) {
	base, depID, sys, _ := harness(t)

	// Three healthy sequences plus one empty one: the healthy slots store
	// trajectories, the empty slot reports its own error.
	rng := rfidclean.NewRNG(11)
	seqs := make([]rfidclean.ReadingSequence, 4)
	for i := range seqs {
		if i == 2 {
			continue // leave slot 2 empty
		}
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = rfidclean.GenerateReadings(truth, sys.Truth, rng)
	}
	body, err := json.Marshal(BatchCleanRequest{
		Deployment: depID, Sequences: seqs, MaxSpeed: 2, MinStay: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out []BatchCleanResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(seqs) {
		t.Fatalf("batch returned %d slots, want %d", len(out), len(seqs))
	}
	for i, res := range out {
		if i == 2 {
			if res.Error == "" || res.ID != "" {
				t.Errorf("empty slot %d: %+v, want error", i, res)
			}
			continue
		}
		if res.Error != "" || res.ID == "" || res.Nodes == 0 {
			t.Errorf("slot %d: %+v, want stored trajectory", i, res)
			continue
		}
		// Each stored trajectory is individually queryable.
		var stats CleanResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/%s", base, res.ID), &stats); code != http.StatusOK {
			t.Errorf("slot %d trajectory %s not queryable (%d)", i, res.ID, code)
		}
	}

	// Error paths.
	for name, req := range map[string]BatchCleanRequest{
		"unknown deployment": {Deployment: "d999", Sequences: seqs[:1], MaxSpeed: 2},
		"zero speed":         {Deployment: depID, Sequences: seqs[:1]},
		"no sequences":       {Deployment: depID, MaxSpeed: 2},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			t.Errorf("%s: batch accepted (%d)", name, r.StatusCode)
		}
	}
	g, err := http.Get(base + "/v1/clean/batch")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d", g.StatusCode)
	}
}

func TestServerInconsistentReadings(t *testing.T) {
	// A rooms-only deployment (no LT-exempt corridor): a minimum stay far
	// longer than the window makes every interpretation invalid under
	// strict end-of-window semantics.
	b := rfidclean.NewMapBuilder()
	a := b.AddLocation("east", rfidclean.Room, 0, rfidclean.RectWH(0, 0, 5, 5))
	c := b.AddLocation("west", rfidclean.Room, 0, rfidclean.RectWH(5, 0, 5, 5))
	b.AddDoor(a, c, rfidclean.Pt(5, 2.5), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := &rfidclean.Deployment{
		Name: "rooms-only",
		Plan: plan,
		Readers: []rfidclean.Reader{
			{ID: 0, Name: "r-east", Floor: 0, Pos: rfidclean.Pt(2.5, 2.5)},
			{ID: 1, Name: "r-west", Floor: 0, Pos: rfidclean.Pt(7.5, 2.5)},
		},
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           0.5,
		CalibrationSamples: 30,
		Seed:               2,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(openServer(t, Options{}))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	readings := make(rfidclean.ReadingSequence, 30)
	for i := range readings {
		readings[i] = rfidclean.Reading{Time: i, Readers: rfidclean.NewReaderSet(0)}
	}
	cresp, _ := postClean(t, ts.URL, CleanRequest{
		Deployment: created["id"], Readings: readings,
		MaxSpeed: 2, MinStay: 10000, StrictEnd: true,
	})
	if cresp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("inconsistent clean status = %d, want 422", cresp.StatusCode)
	}
}

func TestServerHealthz(t *testing.T) {
	base, depID, _, readings := harness(t)
	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health["status"] != "ok" || health["deployments"].(float64) != 1 {
		t.Fatalf("healthz = %v", health)
	}
	if resp, _ := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean status = %d", resp.StatusCode)
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health["trajectories"].(float64) != 1 || health["storeBytes"].(float64) <= 0 {
		t.Fatalf("healthz after clean = %v", health)
	}
}

// TestServerRejectsOversizedGrid: a deployment whose grid would not fit in
// memory — two rooms of 20x6 m at a 0.1 mm cell, 1.2e10 cells — is refused
// with 400 before the server allocates its cell space, and the server keeps
// serving.
func TestServerRejectsOversizedGrid(t *testing.T) {
	base, _, _, _ := harness(t)
	b := rfidclean.NewMapBuilder()
	left := b.AddLocation("left", rfidclean.Room, 0, rfidclean.RectWH(0, 0, 10, 6))
	right := b.AddLocation("right", rfidclean.Room, 0, rfidclean.RectWH(10, 0, 10, 6))
	b.AddDoor(left, right, rfidclean.Pt(10, 3), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&rfidclean.Deployment{
		Name:               "fine",
		Plan:               plan,
		Readers:            []rfidclean.Reader{{ID: 0, Name: "r", Floor: 0, Pos: rfidclean.Pt(5, 3)}},
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           1e-4,
		CalibrationSamples: 30,
		Seed:               1,
	}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized deployment status = %d, want 400", resp.StatusCode)
	}
	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || health["deployments"].(float64) != 1 {
		t.Fatalf("healthz after the rejected deployment = %d %v", code, health)
	}
}

func TestServerBodyLimit(t *testing.T) {
	depJSON, sys := testDeployment(t)
	srv := openServer(t, Options{})
	srv.maxBody = 512
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// The deployment itself exceeds 512 bytes: registering it trips the cap.
	resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized deployment status = %d, want 413", resp.StatusCode)
	}
	if apiErr.Error == "" {
		t.Error("413 response missing uniform apiError body")
	}

	// Oversized clean bodies get the same treatment.
	rng := rfidclean.NewRNG(4)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(400), rng)
	if err != nil {
		t.Fatal(err)
	}
	big, err := json.Marshal(CleanRequest{
		Deployment: "d1",
		Readings:   rfidclean.GenerateReadings(truth, sys.Truth, rng),
		MaxSpeed:   2, MinStay: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 512 {
		t.Fatalf("test body only %d bytes; grow the trajectory", len(big))
	}
	resp, err = http.Post(ts.URL+"/v1/clean", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized clean status = %d, want 413", resp.StatusCode)
	}

	// The rejections are visible on /metrics.
	m := scrape(t, ts.URL)
	if !strings.Contains(m, "rfidclean_body_rejections_total 2") {
		t.Errorf("metrics missing body rejections:\n%s", m)
	}
}

// TestServerBatchIDsDoNotInterleave: all of a batch's trajectory ids are
// allocated in one critical section, so they are consecutive even when
// single cleans run concurrently.
func TestServerBatchIDsDoNotInterleave(t *testing.T) {
	base, depID, sys, readings := harness(t)
	rng := rfidclean.NewRNG(13)
	seqs := make([]rfidclean.ReadingSequence, 6)
	for i := range seqs {
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(40), rng)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = rfidclean.GenerateReadings(truth, sys.Truth, rng)
	}
	body, err := json.Marshal(BatchCleanRequest{Deployment: depID, Sequences: seqs, MaxSpeed: 2, MinStay: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer single cleans while the batch runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
				}
			}
		}()
	}
	resp, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(body))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out []BatchCleanResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i, res := range out {
		if res.Error != "" {
			t.Fatalf("slot %d failed: %s", i, res.Error)
		}
		n, err := strconv.Atoi(strings.TrimPrefix(res.ID, "t"))
		if err != nil {
			t.Fatalf("slot %d id %q", i, res.ID)
		}
		if prev != -1 && n != prev+1 {
			t.Fatalf("batch ids interleaved with concurrent cleans: %v", out)
		}
		prev = n
	}
}

// TestServerConcurrentAccess exercises every mutating and read-only path at
// once; run under -race it is the locking-discipline check for the RWMutex
// deployment table and the trajectory store.
func TestServerConcurrentAccess(t *testing.T) {
	base, depID, sys, readings := harness(t)

	// Seed a trajectory that the query goroutines can always hit.
	resp, seeded := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed clean status = %d", resp.StatusCode)
	}

	rng := rfidclean.NewRNG(31)
	seqs := make([]rfidclean.ReadingSequence, 4)
	for i := range seqs {
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(40), rng)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = rfidclean.GenerateReadings(truth, sys.Truth, rng)
	}
	batchBody, err := json.Marshal(BatchCleanRequest{Deployment: depID, Sequences: seqs, MaxSpeed: 2, MinStay: 5})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		// Single cleans (cache hits after the first inference).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r, _ := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
				if r.StatusCode != http.StatusCreated {
					t.Errorf("concurrent clean status = %d", r.StatusCode)
				}
			}
		}()
		// Read-only queries against the seeded trajectory.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, path := range []string{
					fmt.Sprintf("/v1/trajectories/%s/stay?t=12", seeded.ID),
					fmt.Sprintf("/v1/trajectories/%s/occupancy", seeded.ID),
					fmt.Sprintf("/v1/trajectories/%s/top?k=2", seeded.ID),
					fmt.Sprintf("/v1/trajectories/%s", seeded.ID),
					"/v1/deployments",
					"/healthz",
					"/metrics",
				} {
					r, err := http.Get(base + path)
					if err != nil {
						t.Error(err)
						return
					}
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						t.Errorf("GET %s = %d", path, r.StatusCode)
					}
				}
			}
		}()
	}
	// Batch cleans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			r, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(batchBody))
			if err != nil {
				t.Error(err)
				return
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Errorf("concurrent batch status = %d", r.StatusCode)
			}
		}
	}()
	// Create-then-delete churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			r, created := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
			if r.StatusCode != http.StatusCreated {
				t.Errorf("churn clean status = %d", r.StatusCode)
				return
			}
			req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/trajectories/%s", base, created.ID), nil)
			if err != nil {
				t.Error(err)
				return
			}
			dr, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			dr.Body.Close()
			if dr.StatusCode != http.StatusOK {
				t.Errorf("churn delete status = %d", dr.StatusCode)
			}
		}
	}()
	wg.Wait()

	// With one deployment and fixed parameters, inference ran exactly once
	// across every goroutine above.
	if !strings.Contains(scrape(t, base), "rfidclean_constraint_cache_misses_total 1") {
		t.Error("constraint inference ran more than once under concurrency")
	}
}

// TestServerConcurrentQueriesOneTrajectory fires stay, match and top at a
// freshly cleaned trajectory all at once: every request shares the one
// stored graph, whose query passes are filled lazily by whichever request
// gets there first. Under -race this pins that fill's synchronization.
func TestServerConcurrentQueriesOneTrajectory(t *testing.T) {
	base, depID, _, readings := harness(t)
	for round := 0; round < 4; round++ {
		resp, cleaned := postClean(t, base, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("clean status = %d", resp.StatusCode)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			for _, op := range []string{"stay?t=12", "match?pattern=%3F+lab+%3F", "top?k=2"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					url := fmt.Sprintf("%s/v1/trajectories/%s/%s", base, cleaned.ID, op)
					if code := getJSON(t, url, nil); code != http.StatusOK {
						t.Errorf("GET %s = %d", url, code)
					}
				}()
			}
		}
		close(start)
		wg.Wait()
	}
}

// BenchmarkServerCleanCached measures the repeated-clean steady state: every
// iteration after the first hits the constraint cache, so the cost is the
// prior + Algorithm 1, not DU/LT/TT inference.
func BenchmarkServerCleanCached(b *testing.B) {
	depJSON, sys := testDeployment(b)
	ts := httptest.NewServer(openServer(b, Options{}))
	b.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
	if err != nil {
		b.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	rng := rfidclean.NewRNG(77)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(90), rng)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(CleanRequest{
		Deployment: created["id"],
		Readings:   rfidclean.GenerateReadings(truth, sys.Truth, rng),
		MaxSpeed:   2, MinStay: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := http.Post(ts.URL+"/v1/clean", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		// Drained, the body lets the client reuse its connection. Closed
		// unread, it makes every request dial a new one, and net/http's
		// per-connection goroutine and buffer pools then vary the
		// allocation count with goroutine timing.
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusCreated {
			b.Fatalf("clean status = %d", r.StatusCode)
		}
	}
}

// BenchmarkDecodeCleanBody measures the clean endpoint's body decode: a
// SYN1 20-s CleanRequest, as json.Marshal writes it, through decodeBody.
func BenchmarkDecodeCleanBody(b *testing.B) {
	d, err := dataset.Build("SYN1", dataset.SYN1())
	if err != nil {
		b.Fatal(err)
	}
	insts, err := d.Generate(20, 1, 0x5eed)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(CleanRequest{Deployment: "d1", Readings: insts[0].Readings, MaxSpeed: 2, MinStay: 5})
	if err != nil {
		b.Fatal(err)
	}
	s := openServer(b, Options{})
	b.Cleanup(func() { s.Close() })
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/clean", nil)
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		r.Body = io.NopCloser(rd)
		var req CleanRequest
		if !s.decodeBody(w, r, &req) || len(req.Readings) != 20 {
			b.Fatalf("decoding the body failed: %d %s", w.Code, w.Body)
		}
	}
}
