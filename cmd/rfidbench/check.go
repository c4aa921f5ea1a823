package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/server"
)

// This file is the correctness gate. After the window, four reference
// sequences are cleaned by the daemon (unmeasured) and by an in-process
// server.Open answering the same requests; their stay, match and top bodies
// must be byte-identical. Then the daemon is SIGKILLed and re-executed on
// its data directory: it must recover every trajectory it held and answer
// the reference queries byte for byte as before.

// refCleans names the reference sequences: (deployment, tag) pairs.
var refCleans = [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}

// refPattern is a trajectory pattern every SYN1 deployment can answer.
const refPattern = "? F0.corridor ?"

// refBody is one reference query and the daemon's answer to it.
type refBody struct {
	path string
	body []byte
}

// refQueries returns the stay, match and top paths checked on trajectory id
// of a window of duration timestamps.
func refQueries(id string, duration int) []string {
	return []string{
		queryPath(op{Kind: kindStay, T: duration / 2}, id),
		queryPath(op{Kind: kindPattern, Pattern: refPattern}, id),
		queryPath(op{Kind: kindTop, K: 3}, id),
	}
}

// checkReference cleans the reference sequences on the daemon and on a fresh
// in-process server, compares the answers and returns the daemon's.
func (b *bench) checkReference(ctx context.Context, s *session) ([]refBody, error) {
	ref, err := server.Open(server.Options{TraceBuffer: -1, FlightInterval: -1})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	local := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	var refIDs []string
	for i, dep := range b.plan.Deps {
		code, body := local(http.MethodPost, "/v1/deployments", dep.Body)
		var reg struct {
			ID string `json:"id"`
		}
		if code != http.StatusCreated || json.Unmarshal(body, &reg) != nil {
			return nil, fmt.Errorf("in-process reference: registering deployment %d: %d %s", i, code, body)
		}
		refIDs = append(refIDs, reg.ID)
	}
	var answers []refBody
	for _, rc := range refCleans {
		dep := b.plan.Deps[rc[0]]
		var got, want server.CleanResponse
		if err := postJSON(ctx, b.client, s.d.base+"/v1/clean", dep.cleanBody(s.depIDs[rc[0]], rc[1]), &got); err != nil {
			return nil, fmt.Errorf("reference clean %v: %w", rc, err)
		}
		code, body := local(http.MethodPost, "/v1/clean", dep.cleanBody(refIDs[rc[0]], rc[1]))
		if code != http.StatusCreated || json.Unmarshal(body, &want) != nil {
			return nil, fmt.Errorf("in-process reference clean %v: %d %s", rc, code, body)
		}
		if got.Nodes != want.Nodes || got.Edges != want.Edges || got.Bytes != want.Bytes {
			return nil, fmt.Errorf("reference clean %v: daemon graph %+v, in-process %+v", rc, got, want)
		}
		duration := len(dep.Seqs[rc[1]])
		localPaths := refQueries(want.ID, duration)
		for i, path := range refQueries(got.ID, duration) {
			gotBody, err := get(ctx, b.client, s.d.base+path)
			if err != nil {
				return nil, fmt.Errorf("reference query: %w", err)
			}
			code, wantBody := local(http.MethodGet, localPaths[i], nil)
			if code != http.StatusOK || !bytes.Equal(gotBody, wantBody) {
				return nil, fmt.Errorf("reference query %s: daemon answered %q, in-process %d %q", path, gotBody, code, wantBody)
			}
			answers = append(answers, refBody{path, gotBody})
		}
	}
	return answers, nil
}

// checkRecovery waits until everything the daemon stored is on disk,
// SIGKILLs it and re-executes it on the same data directory. The recovered
// daemon, which replaces s.d, must hold as many trajectories as before and
// answer each of refs byte for byte as before. It returns the time from exec
// to the first healthy answer.
func (b *bench) checkRecovery(ctx context.Context, s *session, refs []refBody) (time.Duration, error) {
	if err := waitPersisted(ctx, s.dir); err != nil {
		return 0, err
	}
	body, err := get(ctx, b.client, s.d.base+"/healthz")
	if err != nil {
		return 0, err
	}
	want, err := healthTrajectories(body)
	if err != nil {
		return 0, err
	}
	s.d.kill()
	start := time.Now()
	if s.d, err = b.startDaemon(s.dir); err != nil {
		return 0, err
	}
	if body, err = s.d.waitHealthy(ctx, b.client, bootTimeout); err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	took := time.Since(start)
	got, err := healthTrajectories(body)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("recovery: %d trajectories, %d before the SIGKILL", got, want)
	}
	for _, ref := range refs {
		body, err := get(ctx, b.client, s.d.base+ref.path)
		if err != nil {
			return 0, fmt.Errorf("recovered daemon: %w", err)
		}
		if !bytes.Equal(body, ref.body) {
			return 0, fmt.Errorf("recovered answer to %s differs: before %q, after %q", ref.path, ref.body, body)
		}
	}
	return took, nil
}
