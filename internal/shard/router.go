package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/server"
)

// PartialHeader marks a scatter-gather response assembled while one or more
// shards were unreachable: the body is what the reachable shards returned,
// and the header value lists the missing shard indices ("1,3"). Paired with
// a 206 status so clients that only look at the code notice too.
const PartialHeader = "X-Rfidclean-Partial"

// Options configures a Router.
type Options struct {
	// Shards are the worker base URLs ("http://127.0.0.1:9001"), in shard
	// index order. The order is the sharding contract: shard i must be the
	// worker running with -shard-index i, or id residues resolve to the
	// wrong process.
	Shards []string
	// Logger receives replication and degradation warnings; nil discards.
	Logger *slog.Logger
}

// Router fronts N rfidcleand workers as one endpoint. Placement follows the
// package contract: new cleans and stream opens land on a shard via the
// consistent-hash ring (keyed by the request's tag when present, else the
// body), while everything addressed by id routes by the id's numeric
// residue, which shard-scoped id namespaces make authoritative. Deployments
// are replicated to every shard so any shard can clean against any
// deployment; cross-shard reads scatter-gather with an explicit partial
// marker when a shard is down.
type Router struct {
	clients []*Client
	ring    *Ring
	m       *routerMetrics
	log     *slog.Logger
	mux     *http.ServeMux
	// maxBody caps request bodies read by the router (server.BodyLimit).
	// The router reads bodies fully — they must be replayable for retry —
	// so the cap guards router memory exactly like the worker's cap guards
	// its own.
	maxBody int64

	// rr spreads un-keyed stream opens round-robin; tagged opens use the
	// ring so the same tag's sessions co-locate with its cleans.
	rr atomic.Uint64

	// nextDep is the router-assigned deployment id counter, initialized
	// lazily from the shards' current listings so a restarted router never
	// re-mints a live id.
	depMu   sync.Mutex
	nextDep int
	depInit bool
}

// NewRouter builds a router over the given worker shards.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rt := &Router{
		ring:    NewRing(len(opts.Shards), 0),
		m:       newRouterMetrics(),
		log:     logger,
		mux:     http.NewServeMux(),
		maxBody: server.BodyLimit,
	}
	for i, base := range opts.Shards {
		c := NewClient(i, strings.TrimRight(base, "/"))
		c.onRetry = func(int) { rt.m.retries.Inc() }
		c.onResult = rt.m.observe
		rt.clients = append(rt.clients, c)
	}
	rt.mux.HandleFunc("/v1/deployments", rt.handleDeployments)
	rt.mux.HandleFunc("/v1/deployments/", rt.handleDeploymentByID)
	rt.mux.HandleFunc("/v1/clean", rt.handleClean)
	rt.mux.HandleFunc("/v1/clean/batch", rt.handleCleanBatch)
	rt.mux.HandleFunc("/v1/stream", rt.handleStreamOpen)
	rt.mux.HandleFunc("/v1/stream/", rt.handleStream)
	rt.mux.HandleFunc("/v1/trajectories", rt.handleTrajectoryList)
	rt.mux.HandleFunc("/v1/trajectories/", rt.handleTrajectory)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/debug/traces", rt.handleDebugTraces)
	rt.mux.HandleFunc("/debug/flight", rt.handleDebugFlight)
	rt.mux.Handle("/metrics", rt.m)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Shards returns the number of worker shards.
func (rt *Router) Shards() int { return len(rt.clients) }

// ---- forwarding primitives -------------------------------------------------

// reply is one shard's fully buffered response. Buffering before writing is
// what makes partial-failure handling safe: no handler touches the
// ResponseWriter until it holds everything it will send, so a shard failing
// mid-gather can never leave a half-written response or a second
// WriteHeader (the SSE proxy is the one deliberate exception).
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error // transport failure; status/header/body are zero
}

// roundTrip forwards one request to a shard and buffers the full response.
func (rt *Router) roundTrip(ctx context.Context, shard int, method, uri string, header http.Header, body []byte) reply {
	resp, err := rt.clients[shard].Do(ctx, method, uri, header, body)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}
}

// write sends a buffered reply downstream verbatim.
func (rt *Router) write(w http.ResponseWriter, rp reply) {
	for k, vs := range rp.header {
		if hopByHop(k) {
			continue
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(rp.status)
	w.Write(rp.body)
}

// forward proxies one request to a single shard, mapping transport failure
// to 502.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard int, body []byte) {
	rp := rt.roundTrip(r.Context(), shard, r.Method, requestURI(r), r.Header, body)
	if rp.err != nil {
		writeError(w, http.StatusBadGateway, "shard %d unreachable: %v", shard, rp.err)
		return
	}
	rt.write(w, rp)
}

// fanOut issues the same request to every shard concurrently and returns
// the replies indexed by shard.
func (rt *Router) fanOut(ctx context.Context, method, uri string, header http.Header, body []byte) []reply {
	replies := make([]reply, len(rt.clients))
	var wg sync.WaitGroup
	for i := range rt.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = rt.roundTrip(ctx, i, method, uri, header, body)
		}(i)
	}
	wg.Wait()
	return replies
}

// firstHealthy forwards a read to shards in order until one answers, for
// state replicated on every shard (deployment listings). Any HTTP response
// is authoritative — only transport failures move on to the next shard.
func (rt *Router) firstHealthy(w http.ResponseWriter, r *http.Request, body []byte) {
	var lastErr error
	for i := range rt.clients {
		rp := rt.roundTrip(r.Context(), i, r.Method, requestURI(r), r.Header, body)
		if rp.err != nil {
			lastErr = rp.err
			continue
		}
		rt.write(w, rp)
		return
	}
	writeError(w, http.StatusBadGateway, "all %d shards unreachable: %v", len(rt.clients), lastErr)
}

// readBody drains the request body under the router's cap. ok is false when
// the cap was exceeded (an error response has been written).
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

func requestURI(r *http.Request) string {
	uri := r.URL.Path
	if r.URL.RawQuery != "" {
		uri += "?" + r.URL.RawQuery
	}
	return uri
}

// ---- deployments -----------------------------------------------------------

// handleDeployments replicates POST (register) to every shard under a
// router-assigned id and serves GET (list) from the first healthy shard.
func (rt *Router) handleDeployments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rt.firstHealthy(w, r, nil)
	case http.MethodPost:
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		id, err := rt.assignDeploymentID(r.Context())
		if err != nil {
			writeError(w, http.StatusBadGateway, "assigning deployment id: %v", err)
			return
		}
		header := r.Header.Clone()
		header.Set(server.AssignIDHeader, id)
		replies := rt.fanOut(r.Context(), http.MethodPost, "/v1/deployments", header, body)
		created, failed := 0, 0
		var firstReject reply
		for i, rp := range replies {
			switch {
			case rp.err != nil:
				failed++
				rt.log.Warn("router: deployment replication failed",
					slog.Int("shard", i), slog.String("error", rp.err.Error()))
			case rp.status == http.StatusCreated || rp.status == http.StatusOK:
				created++
			default:
				failed++
				if firstReject.status == 0 {
					firstReject = rp
				}
			}
		}
		if failed == 0 {
			writeJSON(w, http.StatusCreated, map[string]string{"id": id})
			return
		}
		rt.m.replicationFailures.Inc()
		// Partial registration would leave shards disagreeing on the
		// deployment set, so roll back the shards that accepted it. The
		// compensating deletes are best-effort — an unreachable shard stays
		// inconsistent until it is re-registered — which is why the failure
		// is surfaced as a 502 rather than masked.
		if created > 0 {
			rt.fanOut(r.Context(), http.MethodDelete, "/v1/deployments/"+id, nil, nil)
		}
		if created == 0 && firstReject.status != 0 {
			// Every shard rejected the body the same way (invalid
			// deployment): that is the caller's error, not a replication
			// failure — forward the shard's verdict.
			rt.write(w, firstReject)
			return
		}
		writeError(w, http.StatusBadGateway,
			"deployment registration reached %d/%d shards; rolled back", created, len(replies))
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// assignDeploymentID mints the next router-scoped deployment id. The
// counter starts above the max id any shard currently lists, so restarts
// and pre-existing single-node state never collide.
func (rt *Router) assignDeploymentID(ctx context.Context) (string, error) {
	rt.depMu.Lock()
	defer rt.depMu.Unlock()
	if !rt.depInit {
		max := 0
		replies := rt.fanOut(ctx, http.MethodGet, "/v1/deployments", nil, nil)
		for i, rp := range replies {
			if rp.err != nil {
				// Refuse to guess: an unreachable shard may hold higher ids.
				return "", fmt.Errorf("shard %d unreachable while seeding id counter: %w", i, rp.err)
			}
			var rows []struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rp.body, &rows); err != nil {
				return "", fmt.Errorf("shard %d deployment listing: %w", i, err)
			}
			for _, row := range rows {
				if _, n, ok := server.SplitID(row.ID); ok && n > max {
					max = n
				}
			}
		}
		rt.nextDep = max
		rt.depInit = true
	}
	rt.nextDep++
	return "d" + strconv.Itoa(rt.nextDep), nil
}

// handleDeploymentByID forwards GET to the first healthy shard and
// replicates DELETE to every shard.
func (rt *Router) handleDeploymentByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/deployments/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "unknown deployment path %q", r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		rt.firstHealthy(w, r, nil)
	case http.MethodDelete:
		replies := rt.fanOut(r.Context(), http.MethodDelete, requestURI(r), r.Header, nil)
		deleted, trajectories, notFound := 0, 0, 0
		for i, rp := range replies {
			switch {
			case rp.err != nil:
				rt.m.replicationFailures.Inc()
				rt.log.Warn("router: deployment delete replication failed",
					slog.Int("shard", i), slog.String("error", rp.err.Error()))
			case rp.status == http.StatusOK:
				deleted++
				var res struct {
					Trajectories int `json:"trajectories"`
				}
				if json.Unmarshal(rp.body, &res) == nil {
					trajectories += res.Trajectories
				}
			case rp.status == http.StatusNotFound:
				notFound++
			}
		}
		switch {
		case deleted == len(replies) || (deleted > 0 && deleted+notFound == len(replies)):
			writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "trajectories": trajectories})
		case notFound == len(replies):
			writeError(w, http.StatusNotFound, "unknown deployment %q", id)
		default:
			// A shard kept the deployment (transport failure or refusal):
			// report the delete as incomplete instead of claiming success.
			writeError(w, http.StatusBadGateway,
				"deployment delete reached %d/%d shards", deleted+notFound, len(replies))
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// ---- cleans ----------------------------------------------------------------

// cleanKey extracts the placement key for a clean or stream-open body: the
// request's tag when the client set one (so one object's requests
// co-locate), else empty.
type cleanKey struct {
	Tag string `json:"tag"`
}

// handleClean places the clean on the ring — by tag when present, else by
// body hash so identical requests land identically — and forwards it.
func (rt *Router) handleClean(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var key cleanKey
	_ = json.Unmarshal(body, &key) // malformed bodies route anywhere; the worker rejects them
	shard := 0
	if key.Tag != "" {
		shard = rt.ring.Lookup("tag\x00" + key.Tag)
	} else {
		shard = rt.ring.Lookup("body\x00" + string(body))
	}
	rt.forward(w, r, shard, body)
}

// batchEnvelope is the part of a batch-clean body the router needs to see,
// as the worker decodes it: the deployment to route by and the sequences to
// split by shard. Every other member is kept verbatim and in order, so the
// per-shard sub-bodies re-encode without the router knowing the schema.
type batchEnvelope struct {
	Deployment string            `json:"deployment"`
	Sequences  []json.RawMessage `json:"sequences"`

	rest []member // the body's members but those decoding into Sequences
}

// member is one key and raw value of a JSON object.
type member struct {
	key   string
	value json.RawMessage
}

// handleCleanBatch splits the batch into per-shard sub-batches (each
// sequence placed on the ring like a single clean would be), fans them out
// concurrently, and reassembles the per-slot results in request order.
func (rt *Router) handleCleanBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	env, err := decodeBatch(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch request: %v", err)
		return
	}
	if len(env.Sequences) == 0 {
		// Let the worker produce its canonical validation error.
		rt.forward(w, r, 0, body)
		return
	}
	// slots[i] remembers where sequence i went: shard and position within
	// that shard's sub-batch, for positional reassembly.
	type slotRef struct{ shard, pos int }
	slots := make([]slotRef, len(env.Sequences))
	perShard := make([][]json.RawMessage, len(rt.clients))
	for i, seq := range env.Sequences {
		sh := rt.ring.Lookup("seq\x00" + env.Deployment + "\x00" + string(seq))
		slots[i] = slotRef{shard: sh, pos: len(perShard[sh])}
		perShard[sh] = append(perShard[sh], seq)
	}

	type shardResult struct {
		rp      reply
		results []server.BatchCleanResult
	}
	results := make([]*shardResult, len(rt.clients))
	var wg sync.WaitGroup
	for sh, seqs := range perShard {
		if len(seqs) == 0 {
			continue
		}
		sub, err := env.encodeWith(seqs)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "re-encoding batch: %v", err)
			return
		}
		wg.Add(1)
		go func(sh int, sub []byte) {
			defer wg.Done()
			sr := &shardResult{rp: rt.roundTrip(r.Context(), sh, http.MethodPost, "/v1/clean/batch", r.Header, sub)}
			if sr.rp.err == nil && sr.rp.status == http.StatusOK {
				if err := json.Unmarshal(sr.rp.body, &sr.results); err != nil {
					sr.rp.err = fmt.Errorf("decoding batch response: %w", err)
				}
			}
			results[sh] = sr
		}(sh, sub)
	}
	wg.Wait()

	// If every participating shard answered with the same non-200 status
	// (unknown deployment, bad parameters), that verdict is about the
	// request, not the sharding — forward it as a single node would.
	uniformStatus, uniform := 0, true
	for _, sr := range results {
		if sr == nil {
			continue
		}
		if sr.rp.err != nil || sr.rp.status == http.StatusOK {
			uniform = false
			break
		}
		if uniformStatus == 0 {
			uniformStatus = sr.rp.status
		} else if sr.rp.status != uniformStatus {
			uniform = false
		}
	}
	if uniform && uniformStatus != 0 {
		for _, sr := range results {
			if sr != nil {
				rt.write(w, sr.rp)
				return
			}
		}
	}

	out := make([]server.BatchCleanResult, len(env.Sequences))
	for i, ref := range slots {
		sr := results[ref.shard]
		switch {
		case sr == nil:
			out[i] = server.BatchCleanResult{Error: "internal: sequence not dispatched"}
		case sr.rp.err != nil:
			out[i] = server.BatchCleanResult{Error: fmt.Sprintf("shard %d unreachable: %v", ref.shard, sr.rp.err)}
		case sr.rp.status != http.StatusOK:
			out[i] = server.BatchCleanResult{Error: fmt.Sprintf("shard %d: %s", ref.shard, errorBody(sr.rp))}
		case ref.pos >= len(sr.results):
			out[i] = server.BatchCleanResult{Error: fmt.Sprintf("shard %d returned %d results for %d sequences", ref.shard, len(sr.results), ref.pos+1)}
		default:
			out[i] = sr.results[ref.pos]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeBatch decodes a batch-clean body as the worker does
// (server.DecodeJSON): one JSON value and nothing after it but whitespace,
// keys matched to fields case-insensitively, the last match winning. A body
// with sequences is an object; its members that decode into no sequences
// are kept for encodeWith.
func decodeBatch(body []byte) (*batchEnvelope, error) {
	env := &batchEnvelope{}
	if err := server.DecodeJSON(bytes.NewReader(body), env); err != nil {
		return nil, err
	}
	if len(env.Sequences) == 0 {
		return env, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil { // the opening brace
		return nil, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			return nil, err
		}
		// encoding/json folds keys as strings.EqualFold does.
		if !strings.EqualFold(key, "sequences") {
			env.rest = append(env.rest, member{key: key, value: value})
		}
	}
	return env, nil
}

// encodeWith re-encodes the batch body with only the given sequences: every
// other member as it was, in order, then the sequences, which no other
// member decodes into.
func (e *batchEnvelope) encodeWith(seqs []json.RawMessage) ([]byte, error) {
	buf := []byte{'{'}
	for _, m := range e.rest {
		key, _ := json.Marshal(m.key) // a string always marshals
		buf = append(append(append(buf, key...), ':'), m.value...)
		buf = append(buf, ',')
	}
	raw, err := json.Marshal(seqs)
	if err != nil {
		return nil, err
	}
	buf = append(append(buf, `"sequences":`...), raw...)
	return append(buf, '}'), nil
}

// errorBody extracts the error string from a worker's apiError body,
// falling back to the status text.
func errorBody(rp reply) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(rp.body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return http.StatusText(rp.status)
}

// ---- streaming sessions ----------------------------------------------------

// handleStreamOpen pins a new session to one shard: by its tag's ring
// position when the client set one, else round-robin. Every subsequent
// request for the session resolves back to that shard by the session id's
// residue.
func (rt *Router) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var key cleanKey
	_ = json.Unmarshal(body, &key)
	var shard int
	if key.Tag != "" {
		shard = rt.ring.Lookup("tag\x00" + key.Tag)
	} else {
		shard = int(rt.rr.Add(1)-1) % len(rt.clients)
	}
	rt.forward(w, r, shard, body)
}

// handleStream routes /v1/stream/{id}[/{op}] to the session's shard. The
// events op streams; everything else forwards buffered.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	id, op, _ := strings.Cut(rest, "/")
	shard, ok := OwnerOfID("s", id, len(rt.clients))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream session %q", id)
		return
	}
	if op == "events" && r.Method == http.MethodGet {
		rt.proxyStream(w, r, shard)
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		var okb bool
		body, okb = rt.readBody(w, r)
		if !okb {
			return
		}
	}
	rt.forward(w, r, shard, body)
}

// proxyStream forwards an SSE subscription and relays its bytes as they
// arrive, flushing per chunk so events and the hub's comment lines (": ok",
// ": resume gap", heartbeats) pass through with their timing intact. The
// Last-Event-ID header forwards with the request, so reconnect-resume
// semantics through the router match a direct worker connection.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, shard int) {
	resp, err := rt.clients[shard].Stream(r.Context(), r.Method, requestURI(r), r.Header, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "shard %d unreachable: %v", shard, err)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if hopByHop(k) {
			continue
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // subscriber went away
			}
			_ = rc.Flush()
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			// Upstream died mid-stream. Headers are long gone, so the only
			// honest signal is tearing the downstream connection down —
			// EventSource clients then reconnect with Last-Event-ID and the
			// worker's resume ring picks them back up.
			panic(http.ErrAbortHandler)
		}
	}
}

// ---- trajectories ----------------------------------------------------------

// handleTrajectoryList scatter-gathers GET /v1/trajectories from every
// shard and merges the rows into one id-ordered listing. Unreachable
// shards degrade the response — 206 plus the partial marker — rather than
// failing it or silently shrinking it.
func (rt *Router) handleTrajectoryList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	replies := rt.fanOut(r.Context(), http.MethodGet, requestURI(r), r.Header, nil)
	rows := make([]server.TrajectoryRow, 0)
	var down []string
	for i, rp := range replies {
		if rp.err != nil {
			down = append(down, strconv.Itoa(i))
			rt.log.Warn("router: trajectory listing degraded",
				slog.Int("shard", i), slog.String("error", rp.err.Error()))
			continue
		}
		if rp.status != http.StatusOK {
			rt.write(w, rp)
			return
		}
		var part []server.TrajectoryRow
		if err := json.Unmarshal(rp.body, &part); err != nil {
			writeError(w, http.StatusBadGateway, "shard %d listing: %v", i, err)
			return
		}
		rows = append(rows, part...)
	}
	if len(down) == len(replies) {
		writeError(w, http.StatusBadGateway, "all %d shards unreachable", len(replies))
		return
	}
	sort.Slice(rows, func(i, j int) bool { return server.IDLess(rows[i].ID, rows[j].ID) })
	status := http.StatusOK
	if len(down) > 0 {
		rt.m.partials.Inc()
		w.Header().Set(PartialHeader, strings.Join(down, ","))
		status = http.StatusPartialContent
	}
	writeJSON(w, status, rows)
}

// handleTrajectory routes /v1/trajectories/{id}[/{op}] to the owning shard
// by id residue.
func (rt *Router) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/trajectories/")
	id, _, _ := strings.Cut(rest, "/")
	shard, ok := OwnerOfID("t", id, len(rt.clients))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trajectory %q", id)
		return
	}
	rt.forward(w, r, shard, nil)
}

// ---- health and debug ------------------------------------------------------

// shardHealth is one shard's entry in the router's /healthz view.
type shardHealth struct {
	Shard  int            `json:"shard"`
	Base   string         `json:"base"`
	Status string         `json:"status"` // ok | error | unreachable
	Error  string         `json:"error,omitempty"`
	Detail map[string]any `json:"detail,omitempty"` // the worker's own healthz body
}

// handleHealthz fans /healthz out to every shard and aggregates: 200 "ok"
// when every shard answered ok, 503 "degraded" otherwise, with the
// per-shard detail either way.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	replies := rt.fanOut(r.Context(), http.MethodGet, "/healthz", nil, nil)
	shards := make([]shardHealth, len(replies))
	healthy := 0
	for i, rp := range replies {
		sh := shardHealth{Shard: i, Base: rt.clients[i].Base()}
		switch {
		case rp.err != nil:
			sh.Status = "unreachable"
			sh.Error = rp.err.Error()
		case rp.status != http.StatusOK:
			sh.Status = "error"
			sh.Error = errorBody(rp)
		default:
			sh.Status = "ok"
			healthy++
			_ = json.Unmarshal(rp.body, &sh.Detail)
		}
		shards[i] = sh
	}
	status, label := http.StatusOK, "ok"
	if healthy < len(replies) {
		status, label = http.StatusServiceUnavailable, "degraded"
	}
	writeJSON(w, status, map[string]any{
		"status":  label,
		"mode":    "router",
		"healthy": healthy,
		"shards":  shards,
	})
}

// handleDebugTraces fans the trace lookup out — the shard that served the
// request holds its trace — and forwards the first hit.
func (rt *Router) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	replies := rt.fanOut(r.Context(), http.MethodGet, requestURI(r), r.Header, nil)
	var fallback *reply
	for i := range replies {
		rp := replies[i]
		if rp.err != nil {
			continue
		}
		if rp.status == http.StatusOK {
			rt.write(w, rp)
			return
		}
		if fallback == nil {
			fallback = &replies[i]
		}
	}
	if fallback != nil {
		rt.write(w, *fallback)
		return
	}
	writeError(w, http.StatusBadGateway, "all %d shards unreachable", len(rt.clients))
}

// handleDebugFlight forwards the flight-recorder dump to one shard,
// selected with ?shard=i (default 0); the shard param is stripped before
// forwarding.
func (rt *Router) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard := 0
	if v := q.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= len(rt.clients) {
			writeError(w, http.StatusBadRequest, "invalid ?shard=%q (have %d shards)", v, len(rt.clients))
			return
		}
		shard = n
		q.Del("shard")
	}
	uri := r.URL.Path
	if enc := q.Encode(); enc != "" {
		uri += "?" + enc
	}
	rp := rt.roundTrip(r.Context(), shard, r.Method, uri, r.Header, nil)
	if rp.err != nil {
		writeError(w, http.StatusBadGateway, "shard %d unreachable: %v", shard, rp.err)
		return
	}
	rt.write(w, rp)
}

// ---- shared response helpers ----------------------------------------------

// apiError matches internal/server's uniform error body, so clients see one
// error shape whether the router or a worker answered.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}
