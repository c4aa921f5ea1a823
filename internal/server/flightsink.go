package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"log/slog"

	"repro/internal/obs/flight"
)

// This file wires the runtime flight recorder (internal/obs/flight) into the
// server: the sampler's application gauges, the GET /debug/flight endpoint,
// and the dump triggers — an eviction storm, a persistence error, or the
// daemon's SIGQUIT handler — that write the sampled window to the data dir
// right when the process is misbehaving.

const (
	// stormEvictions within stormWindow counts as an eviction storm worth a
	// flight dump: sustained cache pressure, not a one-off budget trim.
	stormEvictions = 10
	stormWindow    = 10 * time.Second
	// dumpThrottle spaces automatic dumps so a persistent error loop cannot
	// fill the data dir. Operator-requested dumps (SIGQUIT) bypass it.
	dumpThrottle = 30 * time.Second
)

// flightSink owns the recorder plus the dump policy. Nil when the flight
// recorder is disabled.
type flightSink struct {
	rec     *flight.Recorder
	dataDir string // "" disables dumps (ring still serves /debug/flight)
	logger  *slog.Logger

	mu        sync.Mutex
	lastDump  time.Time
	evictions []time.Time // sliding storm-detection window
}

// flightGauges is the sampler's application-state callback.
func (s *Server) flightGauges() map[string]int64 {
	count, bytes := s.store.stats()
	return map[string]int64{
		"store_bytes":           bytes,
		"store_trajectories":    int64(count),
		"store_evictions_total": int64(s.metrics.storeEvictions.Value()),
		"stream_sessions":       s.metrics.streamSessions.Value(),
		"stream_subscribers":    s.metrics.streamSubscribers.Value(),
		"inflight_requests":     s.metrics.inflight.Value(),
		"persist_errors_total":  int64(s.metrics.persistErrors.Value()),
	}
}

// noteEvictions feeds the storm detector with n fresh evictions (store or
// session). On a storm it dumps asynchronously — callers may hold locks.
func (f *flightSink) noteEvictions(n int) {
	if f == nil || n <= 0 {
		return
	}
	now := time.Now()
	f.mu.Lock()
	for i := 0; i < n; i++ {
		f.evictions = append(f.evictions, now)
	}
	cut := 0
	for cut < len(f.evictions) && now.Sub(f.evictions[cut]) > stormWindow {
		cut++
	}
	f.evictions = f.evictions[cut:]
	storm := len(f.evictions) >= stormEvictions
	if storm {
		f.evictions = f.evictions[:0] // re-arm: the next storm needs fresh evidence
	}
	f.mu.Unlock()
	if storm {
		go f.dump("eviction_storm", fmt.Sprintf("%d evictions within %s", stormEvictions, stormWindow), true)
	}
}

// notePersistError is the persister's error hook.
func (f *flightSink) notePersistError(step string) {
	if f == nil {
		return
	}
	go f.dump("persist_error", step, true)
}

// dump notes the event, forces a final sample and writes the window to the
// data dir as flight-<unixnanos>.json. throttled dumps are dropped when one
// happened within dumpThrottle. Returns the written path ("" when only the
// in-memory ring was updated).
func (f *flightSink) dump(reason, detail string, throttled bool) (string, error) {
	if f == nil {
		return "", nil
	}
	f.rec.Note(reason, detail)
	f.rec.Sample()
	if f.dataDir == "" {
		return "", nil
	}
	now := time.Now()
	f.mu.Lock()
	if throttled && now.Sub(f.lastDump) < dumpThrottle {
		f.mu.Unlock()
		return "", nil
	}
	f.lastDump = now
	f.mu.Unlock()

	data, err := json.MarshalIndent(f.rec.Snapshot(), "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(f.dataDir, fmt.Sprintf("flight-%d.json", now.UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		f.logger.Error("flight: dump failed", slog.String("error", err.Error()))
		return "", err
	}
	f.logger.Info("flight: dumped recorder window",
		slog.String("reason", reason), slog.String("detail", detail), slog.String("path", path))
	return path, nil
}

// DumpFlight writes the flight-recorder window to the data dir immediately
// (no throttle) — the daemon calls this on SIGQUIT. It returns the written
// file path, "" when the server has no data dir or no flight recorder.
func (s *Server) DumpFlight(reason string) (string, error) {
	return s.flight.dump(reason, "", false)
}

// handleDebugFlight serves the sampled window as JSON.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder is disabled (negative flight interval)")
		return
	}
	writeJSON(w, http.StatusOK, s.flight.rec.Snapshot())
}
