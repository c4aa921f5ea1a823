// Command streaming demonstrates the online cleaner: instead of collecting a
// whole reading sequence and conditioning it in one batch (Algorithm 1), a
// BuildState consumes readings one timestamp at a time and maintains the
// filtered distribution of the object's current location — the natural mode
// for live tracking dashboards.
//
// The example tracks an object in real time, prints the live estimate at
// regular intervals, and finally smooths the same state into the offline
// ct-graph answer and compares the two: at the last timestamp they
// coincide; at earlier timestamps smoothing can use the future and is
// therefore at least as sharp.
//
// The second half replays the same workflow over the wire: it boots the
// query head in-process and drives a streaming ingestion session through the
// HTTP API — open, append readings as they arrive, poll the filtered
// distribution, and close with a final smoothing pass that leaves a
// queryable ct-graph behind.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"

	rfidclean "repro"
	"repro/internal/server"
)

func main() {
	b := rfidclean.NewMapBuilder()
	cor := b.AddLocation("corridor", rfidclean.Corridor, 0, rfidclean.RectWH(0, 0, 18, 3))
	names := []string{"atrium", "storage", "workshop"}
	for i, name := range names {
		x := float64(i * 6)
		room := b.AddLocation(name, rfidclean.Room, 0, rfidclean.RectWH(x, 3, 6, 5))
		b.AddDoor(cor, room, rfidclean.Pt(x+3, 3), 1.2)
	}
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	readers := []rfidclean.Reader{
		{ID: 0, Name: "r-atrium", Floor: 0, Pos: rfidclean.Pt(3, 5.5)},
		{ID: 1, Name: "r-storage", Floor: 0, Pos: rfidclean.Pt(9, 5.5)},
		{ID: 2, Name: "r-workshop", Floor: 0, Pos: rfidclean.Pt(15, 5.5)},
		{ID: 3, Name: "r-cor", Floor: 0, Pos: rfidclean.Pt(9, 1.5)},
	}
	sys, err := rfidclean.NewSystem(plan, readers, rfidclean.DefaultThreeState(), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	sys.CalibratePrior(30, rfidclean.NewRNG(3))
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		log.Fatal(err)
	}

	const duration = 240
	rng := rfidclean.NewRNG(9)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(duration), rng)
	if err != nil {
		log.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	// Online pass: feed readings to the build state as they "arrive".
	state := rfidclean.NewBuildState(ic)
	fmt.Println("live tracking (online filter):")
	liveCorrect := 0
	for _, r := range readings {
		cands, err := sys.Candidates(r.Readers)
		if err != nil {
			log.Fatal(err)
		}
		if err := state.Observe(cands); err != nil {
			log.Fatalf("t=%d: %v", r.Time, err)
		}
		top, err := state.TopLocations(1)
		if err != nil {
			log.Fatal(err)
		}
		if top[0].Loc == truth.Points[r.Time].Loc {
			liveCorrect++
		}
		if r.Time%40 == 0 {
			fmt.Printf("  t=%3d  estimate %-9s (p=%.2f, frontier %d nodes)   truth %s\n",
				r.Time, plan.Location(top[0].Loc).Name, top[0].P, state.FrontierSize(),
				plan.Location(truth.Points[r.Time].Loc).Name)
		}
	}
	fmt.Printf("online top-1 accuracy: %.1f%%\n", 100*float64(liveCorrect)/float64(duration))

	// Offline answer for comparison: smoothing the same state conditions
	// on the whole sequence.
	cleaned, err := sys.SmoothState(state, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		log.Fatal(err)
	}
	offCorrect := 0
	for tau := 0; tau < duration; tau++ {
		loc, _, err := cleaned.MostLikelyAt(tau)
		if err != nil {
			log.Fatal(err)
		}
		if loc.ID == truth.Points[tau].Loc {
			offCorrect++
		}
	}
	fmt.Printf("offline (smoothed) top-1 accuracy: %.1f%%\n", 100*float64(offCorrect)/float64(duration))

	// At the final timestamp the filtered and smoothed answers coincide.
	final, err := state.Distribution()
	if err != nil {
		log.Fatal(err)
	}
	smoothed, err := cleaned.StayDistribution(duration - 1)
	if err != nil {
		log.Fatal(err)
	}
	filtered := make([]float64, len(smoothed))
	for _, lp := range final {
		filtered[lp.Loc] = lp.P
	}
	maxDiff := 0.0
	for loc, p := range smoothed {
		maxDiff = max(maxDiff, math.Abs(filtered[loc]-p))
	}
	fmt.Printf("max |filtered - smoothed| at the final timestamp: %.2g\n", maxDiff)

	// --- The same workflow over HTTP: streaming ingestion sessions. ---
	srv, err := server.Open(server.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	dep := &rfidclean.Deployment{
		Name: "streaming-demo", Plan: plan, Readers: readers,
		Detection: rfidclean.DefaultThreeState(), CellSize: 0.5,
		CalibrationSamples: 30, Seed: 3,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	depID := postJSON(ts.URL+"/v1/deployments", buf.Bytes())["id"].(string)

	open, _ := json.Marshal(server.StreamOpenRequest{Deployment: depID, MaxSpeed: 2, MinStay: 5})
	sid := postJSON(ts.URL+"/v1/stream", open)["id"].(string)
	fmt.Printf("\nHTTP session %s on deployment %s:\n", sid, depID)

	// Feed the readings in small batches, as a live gateway would, and poll
	// the filtered estimate along the way.
	for i := 0; i < len(readings); i += 24 {
		end := i + 24
		if end > len(readings) {
			end = len(readings)
		}
		body, _ := json.Marshal(server.StreamReadingsRequest{Readings: readings[i:end]})
		postJSON(ts.URL+"/v1/stream/"+sid+"/readings", body)

		resp, err := http.Get(ts.URL + "/v1/stream/" + sid + "?top=1")
		if err != nil {
			log.Fatal(err)
		}
		var st server.StreamStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if st.Time%72 == 71 {
			fmt.Printf("  t=%3d  GET ?top=1 -> %-9s (p=%.2f, frontier %d)\n",
				st.Time, st.Current[0].Location, st.Current[0].P, st.Frontier)
		}
	}

	// Close the session; by default the server smooths the session's build
	// state one last time and stores the smoothed ct-graph.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/"+sid, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var closed server.StreamCloseResponse
	if err := json.NewDecoder(resp.Body).Decode(&closed); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("closed %s; smoothed trajectory %s (%d nodes) is now queryable:\n",
		closed.Closed, closed.Trajectory.ID, closed.Trajectory.Nodes)

	// The stored trajectory answers the usual warehouse queries.
	qresp, err := http.Get(fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", ts.URL, closed.Trajectory.ID, duration-1))
	if err != nil {
		log.Fatal(err)
	}
	var stay []server.LocationProb
	if err := json.NewDecoder(qresp.Body).Decode(&stay); err != nil {
		log.Fatal(err)
	}
	qresp.Body.Close()
	fmt.Printf("  stay?t=%d -> %s (p=%.2f), matching the live filter above\n",
		duration-1, stay[0].Location, stay[0].P)
}

// postJSON posts a JSON body and decodes the JSON object that comes back,
// failing the example on any non-2xx answer.
func postJSON(url string, body []byte) map[string]any {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		log.Fatalf("POST %s: %d: %v", url, resp.StatusCode, out)
	}
	return out
}
