// Command rfidcleand serves the cleaning framework over HTTP: register
// deployments (maps + readers), post reading sequences to be cleaned, and
// query the resulting conditioned trajectory graphs — the clean-once,
// query-many warehousing workflow of the paper's §5 remark.
//
// Usage:
//
//	rfidcleand -addr :8080
//
//	curl -X POST :8080/v1/deployments -d @deployment.json
//	curl -X POST :8080/v1/clean -d '{"deployment":"d1","readings":[...],"maxSpeed":2,"minStay":5}'
//	curl ':8080/v1/trajectories/t1/stay?t=42'
//	curl ':8080/v1/trajectories/t1/match?pattern=%3F+lab%5B30%5D+%3F'
//	curl ':8080/v1/trajectories/t1/top?k=3'
//	curl ':8080/v1/trajectories/t1/occupancy'
//	curl ':8080/healthz'
//	curl ':8080/metrics'
//
// Streaming ingestion sessions (live tracking) ride the same server:
//
//	curl -X POST :8080/v1/stream -d '{"deployment":"d1","maxSpeed":2,"minStay":5}'
//	curl -X POST :8080/v1/stream/s1/readings -d '{"readings":[{"time":0,"readers":[3]}]}'
//	curl ':8080/v1/stream/s1?top=3'
//	curl -N ':8080/v1/stream/s1/events'   # SSE: pushed delta/smooth/close events
//	curl -X POST :8080/v1/stream/s1/smooth
//	curl -X DELETE :8080/v1/stream/s1
//
// cmd/rfidedge is the matching reader-side adapter that feeds sessions from
// hardware.
//
// With -demo, the server starts preloaded with the SYN1 deployment so the
// API can be exercised immediately. -max-store-bytes puts the trajectory
// store under an LRU byte budget, and -pprof mounts net/http/pprof under
// /debug/pprof/. The remaining serving limits are fixed:
//
//	POST body                     32 MiB (413 past it; the router applies it too)
//	constraint cache              64 parameter sets per deployment, LRU
//	open streaming sessions       1024 (least-recently-active evicted past it)
//	idle session lifetime         15m (then reaped)
//	readings per session          65536 (429 past it)
//	SSE subscriber buffer         64 events (a slower subscriber is dropped)
//	SSE resume history            256 events per session (Last-Event-ID)
//	SSE heartbeat                 15s on an idle stream
//	flight-recorder window        300 samples, one per second
//	router per-request timeout    30s, with 2 retries on connection errors
//	batch-clean concurrency       GOMAXPROCS
//
// With -data-dir the daemon is durable: deployments and cleaned trajectory
// graphs are persisted under the directory (snapshot + write-ahead log,
// compacted every -snapshot-interval) and recovered on the next boot, so a
// crash — even kill -9 — loses at most the last un-fsynced flush cycle.
// Without it, everything stays in memory and nothing touches the disk.
//
// The daemon also scales out horizontally. Worker mode gives a process a
// shard-scoped id namespace:
//
//	rfidcleand -addr :9001 -shard-index 0 -shard-count 3
//	rfidcleand -addr :9002 -shard-index 1 -shard-count 3
//	rfidcleand -addr :9003 -shard-index 2 -shard-count 3
//
// and router mode fronts the workers as one endpoint, consistent-hashing
// new work across them, forwarding id-addressed traffic to the owning
// shard, replicating deployments everywhere, and scatter-gathering
// cross-shard reads:
//
//	rfidcleand -shards http://localhost:9001,http://localhost:9002,http://localhost:9003
//
// The router's /healthz aggregates per-shard health and its /metrics
// exports per-shard request/error/latency series; see internal/shard and
// the README's "Running sharded" section.
//
// Observability: every response carries an X-Request-ID (echoed from the
// request or generated), access lines go to stderr as structured slog
// records at -log-level verbosity, each /v1/ request (and each persistence
// flush, compaction and recovery) records a span trace served at
// /debug/traces under a per-endpoint tail-retention policy, and cleaned
// trajectories answer /v1/trajectories/{id}/explain with per-phase timings
// and per-constraint prune counts. A background flight recorder samples
// runtime and store health into the window served at /debug/flight; the
// window is dumped to -data-dir on an eviction storm, a persistence error,
// or SIGQUIT (which keeps the daemon serving). On SIGINT/SIGTERM the server
// stops accepting connections, drains in-flight requests for up to
// -drain-timeout, then stops the session reaper before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"log/slog"

	rfidclean "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/shard"
)

// config carries the daemon's settings; main fills it from flags, tests fill
// it directly.
type config struct {
	addr             string
	demo             bool
	maxStoreBytes    int64
	pprof            bool
	drain            time.Duration
	logLevel         string
	dataDir          string
	snapshotInterval time.Duration

	// Worker mode: this process owns the id namespace n ≡ shardIndex
	// (mod shardCount). Zero values mean single-node.
	shardIndex int
	shardCount int

	// Router mode: front these worker base URLs instead of serving locally.
	shards string

	ready chan<- net.Addr // if non-nil, receives the bound listen address
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", s)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidcleand: ")

	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.BoolVar(&cfg.demo, "demo", false, "preload the SYN1 deployment as d1")
	flag.Int64Var(&cfg.maxStoreBytes, "max-store-bytes", 0, "trajectory-store byte budget with LRU eviction (0 = unlimited)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.DurationVar(&cfg.drain, "drain-timeout", 10*time.Second, "how long to drain in-flight requests on shutdown")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured log verbosity: debug, info, warn or error (debug includes /healthz and /metrics access lines)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persist deployments and trajectories under this directory and recover them on boot (empty = in-memory only)")
	flag.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 0, "how often the trajectory write-ahead log is compacted into a snapshot (0 = default 1m, negative disables periodic compaction)")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "this worker's shard index in [0, -shard-count)")
	flag.IntVar(&cfg.shardCount, "shard-count", 0, "total worker shards; > 1 scopes this worker's ids to its shard-index residue class")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated worker base URLs; when set the daemon runs as a router over them instead of serving locally")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes immediately, in-flight requests get up to cfg.drain to
// finish, and only then does run return.
func run(ctx context.Context, cfg config) error {
	if cfg.shards != "" {
		return runRouter(ctx, cfg)
	}
	level, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv, err := server.Open(server.Options{
		ShardCount:       cfg.shardCount,
		ShardIndex:       cfg.shardIndex,
		MaxStoreBytes:    cfg.maxStoreBytes,
		Logger:           logger,
		DataDir:          cfg.dataDir,
		SnapshotInterval: cfg.snapshotInterval,
	})
	if err != nil {
		return err
	}
	defer srv.Close() // stop the session reaper and drain the WAL writer

	// SIGQUIT dumps the flight-recorder window to -data-dir and keeps
	// serving — the "what was it doing just now" probe for a live daemon.
	// (This replaces Go's default SIGQUIT stack-dump-and-exit.)
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			switch path, err := srv.DumpFlight("sigquit"); {
			case err != nil:
				log.Printf("SIGQUIT: flight dump failed: %v", err)
			case path == "":
				log.Printf("SIGQUIT: flight window noted in memory only (set -data-dir to write dumps)")
			default:
				log.Printf("SIGQUIT: flight window dumped to %s", path)
			}
		}
	}()

	if cfg.dataDir != "" {
		log.Printf("durable mode: persisting to %s", cfg.dataDir)
	}
	if cfg.shardCount > 1 {
		log.Printf("worker mode: shard %d of %d (ids ≡ %d mod %d)",
			cfg.shardIndex, cfg.shardCount, cfg.shardIndex, cfg.shardCount)
	}
	if cfg.demo {
		switch id, err := preloadSYN1(srv); {
		case err != nil:
			return err
		case id == "":
			log.Printf("SYN1 already registered (recovered from -data-dir)")
		default:
			log.Printf("preloaded SYN1 as deployment %s", id)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof mounted at /debug/pprof/")
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.ready != nil {
		cfg.ready <- ln.Addr()
	}
	log.Printf("listening on %s", ln.Addr())

	httpServer := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SSE event streams never finish on their own, so a graceful Shutdown
	// would otherwise hang on them for the whole drain timeout; this hook
	// pushes a terminal close event to every subscriber the moment the
	// drain starts, letting their handlers return promptly.
	httpServer.RegisterOnShutdown(srv.DrainSubscribers)
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight requests (up to %s)", cfg.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runRouter serves the sharding front-end: every request is forwarded to
// the worker fleet named by -shards, with the same graceful-shutdown
// contract as a worker (close the listener, drain in-flight requests).
func runRouter(ctx context.Context, cfg config) error {
	if cfg.demo {
		return errors.New("-demo is a worker-mode flag; preload one worker instead")
	}
	if cfg.dataDir != "" {
		return errors.New("-data-dir is a worker-mode flag; the router holds no state")
	}
	if cfg.shardCount > 1 {
		return errors.New("-shard-count and -shards are mutually exclusive (worker vs router mode)")
	}
	var bases []string
	for _, s := range strings.Split(cfg.shards, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		bases = append(bases, s)
	}
	if len(bases) == 0 {
		return errors.New("-shards must name at least one worker base URL")
	}
	level, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	rt, err := shard.NewRouter(shard.Options{Shards: bases, Logger: logger})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.ready != nil {
		cfg.ready <- ln.Addr()
	}
	log.Printf("router mode: listening on %s, fronting %d shards: %s",
		ln.Addr(), len(bases), strings.Join(bases, ", "))

	httpServer := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight requests (up to %s)", cfg.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// preloadSYN1 registers the built-in SYN1 dataset's deployment by posting it
// through the server's own API (keeping a single registration code path). It
// returns the new deployment's id, or "" when a deployment named SYN1 is
// already registered — the durable-restart case, where the recovered copy
// must keep its id so persisted trajectories stay attached to it.
func preloadSYN1(srv *server.Server) (string, error) {
	if syn1Registered(srv) {
		return "", nil
	}
	cfg := dataset.SYN1()
	d, err := dataset.Build("SYN1", cfg)
	if err != nil {
		return "", err
	}
	dep := &rfidclean.Deployment{
		Name:               "SYN1",
		Plan:               d.Plan,
		Readers:            d.Readers,
		Detection:          cfg.Detection,
		CellSize:           cfg.CellSize,
		CalibrationSamples: cfg.CalibrationSamples,
		Seed:               cfg.Seed,
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		return "", err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/deployments", &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return "", bytesError(rec.Body.Bytes())
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		return "", err
	}
	return created.ID, nil
}

// syn1Registered asks the server's own listing whether a deployment named
// SYN1 already exists.
func syn1Registered(srv *server.Server) bool {
	req := httptest.NewRequest(http.MethodGet, "/v1/deployments", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var rows []struct {
		Name string `json:"name"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rows) != nil {
		return false
	}
	for _, r := range rows {
		if r.Name == "SYN1" {
			return true
		}
	}
	return false
}

type bytesError []byte

func (b bytesError) Error() string { return string(b) }
