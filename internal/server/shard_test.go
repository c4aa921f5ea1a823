package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	rfidclean "repro"
)

func TestNextStridedID(t *testing.T) {
	cases := []struct {
		cur, stride, offset, want int
	}{
		{0, 1, 0, 1}, // single-node: plain increment
		{5, 0, 0, 6}, // stride <= 1 degrades to increment
		{0, 3, 0, 3}, // first id in residue class 0 is 3, not 0
		{0, 3, 1, 1}, // shard 1 of 3 starts at 1
		{0, 3, 2, 2}, // shard 2 of 3 starts at 2
		{1, 3, 1, 4}, // next in class
		{3, 3, 1, 4}, // cur outside the class rounds up into it
		{5, 3, 1, 7}, // restored counter in the wrong class strides past
		{7, 2, 0, 8}, // even namespace
		{7, 2, 1, 9}, // odd namespace
		{99, 10, 4, 104},
	}
	for _, c := range cases {
		got := nextStridedID(c.cur, c.stride, c.offset)
		if got != c.want {
			t.Errorf("nextStridedID(%d, %d, %d) = %d, want %d", c.cur, c.stride, c.offset, got, c.want)
		}
		if c.stride > 1 {
			if got%c.stride != c.offset {
				t.Errorf("nextStridedID(%d, %d, %d) = %d: not in residue class %d", c.cur, c.stride, c.offset, got, c.offset)
			}
			if got <= c.cur {
				t.Errorf("nextStridedID(%d, %d, %d) = %d: not monotonic", c.cur, c.stride, c.offset, got)
			}
		}
	}
}

// TestOpenRejectsBadShardConfig: an out-of-range shard index is a
// configuration error, not a silently collapsed namespace.
func TestOpenRejectsBadShardConfig(t *testing.T) {
	for _, idx := range []int{-1, 3, 7} {
		if _, err := Open(Options{ShardCount: 3, ShardIndex: idx}); err == nil {
			t.Errorf("Open(ShardCount: 3, ShardIndex: %d) succeeded, want error", idx)
		}
	}
	if srv, err := Open(Options{ShardCount: 3, ShardIndex: 2}); err != nil {
		t.Errorf("Open(ShardCount: 3, ShardIndex: 2) = %v", err)
	} else {
		srv.Close()
	}
}

// TestCrossShardIDNamespacesDisjoint (satellite S1): two workers configured
// as shards 0 and 1 of 2 mint ids from disjoint residue classes — no
// trajectory, session or deployment id can collide across shards no matter
// how requests interleave, which is the invariant routing-by-residue rests
// on.
func TestCrossShardIDNamespacesDisjoint(t *testing.T) {
	depJSON, sys := testDeployment(t)
	rng := rfidclean.NewRNG(7)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	seen := map[string]int{} // id -> shard that minted it
	for shardIdx := 0; shardIdx < 2; shardIdx++ {
		srv := openServer(t, Options{ShardCount: 2, ShardIndex: shardIdx})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
		if err != nil {
			t.Fatal(err)
		}
		var created map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		depID := created["id"]
		checkResidue(t, seen, depID, "d", shardIdx, 2)

		// A mix of single cleans and a batch, so both allocation paths are
		// covered.
		for i := 0; i < 2; i++ {
			resp, out := postClean(t, ts.URL, CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("shard %d clean status = %d", shardIdx, resp.StatusCode)
			}
			checkResidue(t, seen, out.ID, "t", shardIdx, 2)
		}
		batchBody, _ := json.Marshal(BatchCleanRequest{
			Deployment: depID,
			Sequences:  []rfidclean.ReadingSequence{readings, readings, readings},
			MaxSpeed:   2, MinStay: 5,
		})
		resp, err = http.Post(ts.URL+"/v1/clean/batch", "application/json", bytes.NewReader(batchBody))
		if err != nil {
			t.Fatal(err)
		}
		var results []BatchCleanResult
		if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, r := range results {
			if r.Error != "" {
				t.Fatalf("shard %d batch slot error: %s", shardIdx, r.Error)
			}
			checkResidue(t, seen, r.ID, "t", shardIdx, 2)
		}

		// Session ids share the discipline.
		openBody, _ := json.Marshal(StreamOpenRequest{Deployment: depID, MaxSpeed: 2, MinStay: 5})
		resp, err = http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(openBody))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		checkResidue(t, seen, created["id"], "s", shardIdx, 2)
	}
}

// checkResidue asserts the id's numeric suffix lives in the shard's residue
// class and has never been minted by another shard.
func checkResidue(t *testing.T, seen map[string]int, id, prefix string, shardIdx, shards int) {
	t.Helper()
	n, ok := idNum(prefix, id)
	if !ok {
		t.Fatalf("shard %d minted id %q, want %s<number>", shardIdx, id, prefix)
	}
	if n%shards != shardIdx {
		t.Fatalf("shard %d minted %q: residue %d, want %d — cross-shard collision possible", shardIdx, id, n%shards, shardIdx)
	}
	if prev, dup := seen[id]; dup {
		t.Fatalf("id %q minted by both shard %d and shard %d", id, prev, shardIdx)
	}
	seen[id] = shardIdx
}

// TestStridedCounterAfterRestore (satellite S1): a counter recovered from
// persisted state may sit in another shard's residue class (single-node
// history resharded later); the next mint must stride past it into this
// shard's class instead of continuing the old sequence.
func TestStridedCounterAfterRestore(t *testing.T) {
	cs := testCleaneds(t, 2)
	st := newTrajStore(0, 3, 1, newMetrics())
	// Simulate recovery having advanced the counter to 5 (class 2 of 3).
	st.mu.Lock()
	st.next = 5
	st.mu.Unlock()
	ids := st.addBatch("d1", cs)
	if ids[0] != "t7" || ids[1] != "t10" {
		t.Fatalf("post-restore mints = %v, want [t7 t10] (class 1 mod 3, past 5)", ids)
	}
}

// TestAssignIDHeaderContract: router-assigned deployment ids are accepted
// only in worker mode, replay idempotently when the body matches, and 409
// when it does not.
func TestAssignIDHeaderContract(t *testing.T) {
	depJSON, _ := testDeployment(t)

	post := func(ts *httptest.Server, id string, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/deployments", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(AssignIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Single-node mode refuses the header outright: nothing should be able
	// to inject ids into an unsharded namespace.
	single := httptest.NewServer(openServer(t, Options{}))
	defer single.Close()
	resp := post(single, "d9", depJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-node assigned-id status = %d, want 400", resp.StatusCode)
	}

	worker := httptest.NewServer(openServer(t, Options{ShardCount: 2, ShardIndex: 0}))
	defer worker.Close()

	resp = post(worker, "d9", depJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("worker assigned-id status = %d, want 201", resp.StatusCode)
	}
	// Replay with the same body: idempotent 200, same id.
	resp = post(worker, "d9", depJSON)
	var replay map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || replay["id"] != "d9" {
		t.Fatalf("replay = (%d, %v), want (200, d9)", resp.StatusCode, replay)
	}
	// Same id, different definition: conflict.
	other := bytes.Replace(depJSON, []byte(`"test"`), []byte(`"other"`), 1)
	if bytes.Equal(other, depJSON) {
		t.Fatal("test premise broken: body rewrite had no effect")
	}
	resp = post(worker, "d9", other)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting replay status = %d, want 409", resp.StatusCode)
	}
	// An invalid id is rejected before touching the registry.
	resp = post(worker, "x9", depJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed assigned id status = %d, want 400", resp.StatusCode)
	}
	// The counter moved past the assigned id: the next locally minted id
	// must not collide with d9.
	resp = post(worker, "", depJSON)
	var minted map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&minted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("local mint status = %d, want 201", resp.StatusCode)
	}
	if n, ok := idNum("d", minted["id"]); !ok || n <= 9 || n%2 != 0 {
		t.Fatalf("local mint after assigned d9 = %q, want an even id > 9", minted["id"])
	}
}

// TestDeleteDeploymentDuringClean (satellite S2): deleting a deployment
// while cleans and batches are in flight must never leave orphaned
// trajectories in the store — whichever of the delete sweep and the
// post-store check runs second removes the graph. Run with -race to also
// exercise the dead-flag ordering.
func TestDeleteDeploymentDuringClean(t *testing.T) {
	depJSON, sys := testDeployment(t)
	rng := rfidclean.NewRNG(31)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	srv := openServer(t, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cleanBody, _ := json.Marshal(CleanRequest{Deployment: "PLACEHOLDER", Readings: readings, MaxSpeed: 2, MinStay: 5})
	batchBody, _ := json.Marshal(BatchCleanRequest{
		Deployment: "PLACEHOLDER",
		Sequences:  []rfidclean.ReadingSequence{readings, readings},
		MaxSpeed:   2, MinStay: 5,
	})

	for iter := 0; iter < 8; iter++ {
		resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
		if err != nil {
			t.Fatal(err)
		}
		var created map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		depID := created["id"]

		cb := bytes.Replace(cleanBody, []byte("PLACEHOLDER"), []byte(depID), 1)
		bb := bytes.Replace(batchBody, []byte("PLACEHOLDER"), []byte(depID), 1)

		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/clean", "application/json", bytes.NewReader(cb))
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/clean/batch", "application/json", bytes.NewReader(bb))
			if err == nil {
				resp.Body.Close()
			}
		}()

		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/deployments/"+depID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wg.Wait()

		// Invariant: once both sides have finished, the store holds nothing
		// cleaned under the deleted deployment, regardless of interleaving.
		for _, row := range srv.store.list() {
			if row.Deployment == depID {
				t.Fatalf("iteration %d: orphan trajectory %s survives deletion of %s", iter, row.ID, depID)
			}
		}
	}
}

// TestDeleteDeploymentDuringStream (satellite S2): the same no-orphan
// invariant holds for the streaming paths — a session opened against a
// deployment that is deleted concurrently either fails its open or loses
// its smoothed trajectories with the deployment.
func TestDeleteDeploymentDuringStream(t *testing.T) {
	depJSON, sys := testDeployment(t)
	rng := rfidclean.NewRNG(33)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	srv := openServer(t, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for iter := 0; iter < 6; iter++ {
		resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
		if err != nil {
			t.Fatal(err)
		}
		var created map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		depID := created["id"]

		openBody, _ := json.Marshal(StreamOpenRequest{Deployment: depID, MaxSpeed: 2, MinStay: 5})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(openBody))
			if err != nil {
				return
			}
			var opened map[string]any
			ok := resp.StatusCode == http.StatusCreated && json.NewDecoder(resp.Body).Decode(&opened) == nil
			resp.Body.Close()
			if !ok {
				return
			}
			sessID, _ := opened["id"].(string)
			// Feed readings and smooth — the smooth stores a trajectory,
			// which must not survive the delete.
			rb, _ := json.Marshal(StreamReadingsRequest{Readings: readings})
			if resp, err := http.Post(ts.URL+"/v1/stream/"+sessID+"/readings", "application/json", bytes.NewReader(rb)); err == nil {
				resp.Body.Close()
			}
			if resp, err := http.Post(ts.URL+"/v1/stream/"+sessID+"/smooth", "application/json", nil); err == nil {
				resp.Body.Close()
			}
		}()

		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/deployments/"+depID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wg.Wait()

		for _, row := range srv.store.list() {
			if row.Deployment == depID {
				t.Fatalf("iteration %d: orphan trajectory %s survives deletion of %s", iter, row.ID, depID)
			}
		}
	}
}
