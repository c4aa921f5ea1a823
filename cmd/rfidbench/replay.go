package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	rfidclean "repro"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/stats"
)

// This file is the traced run's replay. A pass first recovers copies of the
// data directory the end-to-end window left behind with server.Open, then
// replays a few probe ops of every kind the workload does not send, so that
// every layer has calls to measure on every workload, and then the first ops
// of the workload's plan, in-process. Each request runs twice: whole,
// through (*server.Server).ServeHTTP, recorded as span server.serve; and
// decomposed into the public layer calls the handler makes, each wrapped in a
// span the benchmark records around the call, with the allocations it made.
// The program under test records nothing. A request's residual is its serve
// time minus its blocking spans: the mux, middleware, store admission,
// metrics and response writing that no public call reaches. Persistence
// happens off the request path in the daemon (a background writer), so its
// spans are marked off-path and left out of the residual; the replay server
// itself runs without a data directory, so its writer cannot interleave with
// the spans. Batch cleans run with one worker so their layer calls add up.
// SSE subscribers are not replayed.

const (
	replayOps        = 400             // plan ops replayed per pass
	replayBudget     = 6 * time.Second // per pass for plan ops; fewer ops when it runs out
	replayRecoveries = 8               // recoveries per pass
	recoveryBudget   = 3 * time.Second // per pass for recoveries; at least one runs
	probesPerKind    = 8               // probe ops per op kind the workload lacks
	probeTargets     = 2               // prefilled trajectories per deployment probe queries ask
)

// span is one timed call, recorded by the benchmark around a public
// function of a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's server.serve span
	Op      int    `json:"op"`     // index of the replayed op
	Kind    string `json:"kind"`   // request kind
	Name    string `json:"name"`   // layer.call
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"bytes"`
	OffPath bool   `json:"offPath,omitempty"` // work the request does not wait for
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory; with on unset every call is a no-op, which
// is how the tracing overhead is measured.
type recorder struct {
	on      bool
	t0      time.Time
	spans   []span
	counts  map[string][]float64 // per-call quantities spans do not carry
	samples []metrics.Sample
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), counts: map[string][]float64{}, samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
	}}
}

// count records one value of a per-call quantity such as a graph's size.
func (r *recorder) count(name string, v float64) {
	if r.on {
		r.counts[name] = append(r.counts[name], v)
	}
}

func (r *recorder) allocs() (uint64, uint64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// begin opens a span and returns its id, -1 when recording is off. The
// allocation counters are read outside the timed interval.
func (r *recorder) begin(op, parent int, kind, name string, offPath bool) int {
	if !r.on {
		return -1
	}
	objs, bytes := r.allocs()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Op: op, Kind: kind, Name: name, OffPath: offPath,
		Start: time.Since(r.t0).Nanoseconds(), Allocs: objs, Bytes: bytes,
	})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	objs, bytes := r.allocs()
	s := &r.spans[id]
	s.End, s.Allocs, s.Bytes = end, objs-s.Allocs, bytes-s.Bytes
}

// do records fn as a span.
func (r *recorder) do(op, parent int, kind, name string, offPath bool, fn func() error) error {
	id := r.begin(op, parent, kind, name, offPath)
	err := fn()
	r.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// phases appends the build phases of ex as children of span id, laid end to
// end from its start: the build reports their durations, not their times.
func (r *recorder) phases(id int, ex *core.BuildExplain) {
	if id < 0 {
		return
	}
	b := r.spans[id]
	at := b.Start
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"core.compile", ex.CompileNanos}, {"core.forward", ex.ForwardNanos}, {"core.backward", ex.BackwardNanos}, {"core.revise", ex.ReviseNanos}} {
		r.spans = append(r.spans, span{ID: len(r.spans), Parent: id, Op: b.Op, Kind: b.Kind, Name: ph.name, Start: at, End: at + ph.ns})
		at += ph.ns
	}
}

// residuals returns, per server.serve span, its duration minus its direct
// blocking children's, keyed by the serve span's id.
func residuals(spans []span) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range spans {
		if s.Name == "server.serve" {
			out[s.ID] += s.dur()
		}
	}
	for _, s := range spans {
		if _, ok := out[s.Parent]; ok && !s.OffPath {
			out[s.Parent] -= s.dur()
		}
	}
	return out
}

// replayDep is one deployment as both sides of the replay see it: its id on
// the replay server and the System the decomposed calls use.
type replayDep struct {
	id  string
	in  *depInput
	sys *rfidclean.System
	ic  *rfidclean.ConstraintSet
}

// built is a decomposed clean's result, kept for later queries.
type built struct {
	g   *core.Graph
	eng *query.Engine
}

// replayer holds one replay pass.
type replayer struct {
	rec     *recorder
	srv     *server.Server
	deps    []*replayDep
	byID    map[string]*replayDep
	targets [][]string       // prefilled trajectory ids per deployment
	graphs  map[string]built // decomposed graphs of the prefilled trajectories
	log     *persist.Log
	setup   bool // prefilling: skip the WAL puts nothing measures
}

// newReplayer opens the replay server with the workload's store budget,
// decodes the plan's deployments into Systems with their constraint sets as
// a fresh server would (recorded as setup spans), registers them on the
// server and prefills, unrecorded. Probe queries need probeTargets prefilled
// trajectories per deployment even where the workload prefills none.
func (b *bench) newReplayer(rec *recorder, dir string) (*replayer, error) {
	srv, err := server.Open(server.Options{Workers: 1, MaxStoreBytes: b.storeBudget(), FlightInterval: -1})
	if err != nil {
		return nil, err
	}
	p := &replayer{rec: rec, srv: srv, byID: map[string]*replayDep{}, graphs: map[string]built{}}
	if p.log, err = persist.OpenLog(filepath.Join(dir, "replay.wal")); err != nil {
		srv.Close()
		return nil, err
	}
	if err := p.register(b.plan.Deps); err != nil {
		p.close()
		return nil, err
	}
	on := rec.on
	rec.on, p.setup = false, true
	defer func() { rec.on, p.setup = on, false }()
	p.targets = make([][]string, len(p.deps))
	for i, d := range p.deps {
		for tag := 0; tag < max(b.plan.Prefill, probeTargets); tag++ {
			id, err := p.clean(-1, tag, d)
			if err != nil {
				p.close()
				return nil, err
			}
			p.targets[i] = append(p.targets[i], id)
		}
	}
	return p, nil
}

// register decodes each deployment and infers its constraints, recording
// both, and registers it on the replay server.
func (p *replayer) register(ins []*depInput) error {
	for i, in := range ins {
		d := &replayDep{id: fmt.Sprintf("d%d", i+1), in: in}
		if err := p.rec.do(-1, -1, "setup", "deployment.system", false, func() error {
			dep, err := rfidclean.DecodeDeployment(bytes.NewReader(in.Body))
			if err != nil {
				return err
			}
			d.sys, err = dep.System()
			return err
		}); err != nil {
			return err
		}
		if err := p.rec.do(-1, -1, "setup", "constraints.infer", false, func() (err error) {
			d.ic, err = d.sys.Constraints(rfidclean.ConstraintParams{MaxSpeed: in.MaxSpeed, MinStay: in.MinStay, TTCap: in.TTCap})
			return err
		}); err != nil {
			return err
		}
		on := p.rec.on
		p.rec.on = false
		var reg struct {
			ID string `json:"id"`
		}
		_, err := p.serveJSON(-1, "setup", http.MethodPost, "/v1/deployments", "application/json", in.Body, &reg)
		p.rec.on = on
		if err != nil {
			return err
		}
		if reg.ID != d.id {
			return fmt.Errorf("replay: deployment registered as %q, want %q", reg.ID, d.id)
		}
		p.deps = append(p.deps, d)
		p.byID[d.id] = d
	}
	return nil
}

func (p *replayer) close() {
	p.srv.Close()
	p.log.Close()
}

// serve runs one request whole through ServeHTTP as a server.serve span and
// returns the span id and the response body; a non-2xx answer is an error.
func (p *replayer) serve(op int, kind, method, path, ctype string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	w := httptest.NewRecorder()
	id := p.rec.begin(op, -1, kind, "server.serve", false)
	p.srv.ServeHTTP(w, req)
	p.rec.end(id)
	if w.Code/100 != 2 {
		return id, nil, fmt.Errorf("replay %s %s: %d %s", method, path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return id, w.Body.Bytes(), nil
}

// serveJSON is serve decoding the answer into out.
func (p *replayer) serveJSON(op int, kind, method, path, ctype string, body []byte, out any) (int, error) {
	id, resp, err := p.serve(op, kind, method, path, ctype, body)
	if err != nil {
		return id, err
	}
	return id, json.Unmarshal(resp, out)
}

// run replays ops, numbering them from first, until limit are done or,
// with a budget, until it runs out. It returns how many ran.
func (p *replayer) run(ctx context.Context, ops []op, first, limit int, budget time.Duration) (int, error) {
	start := time.Now()
	done := 0
	for ; done < min(limit, len(ops)); done++ {
		if budget > 0 && time.Since(start) > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if err := p.op(first+done, ops[done]); err != nil {
			return done, err
		}
	}
	return done, nil
}

func (p *replayer) op(i int, o op) error {
	d := p.deps[o.Dep]
	switch o.Kind {
	case kindClean:
		_, err := p.clean(i, o.Tag, d)
		return err
	case kindBatch:
		return p.batch(i, o.Tag, d)
	case kindStay, kindPattern, kindTop:
		return p.query(i, o, d)
	case kindStream:
		return p.stream(i, o, d)
	}
	return fmt.Errorf("replay: op kind %q", o.Kind)
}

// clean replays POST /v1/clean and returns the trajectory id.
func (p *replayer) clean(i, tag int, d *replayDep) (string, error) {
	body := d.in.cleanBody(d.id, tag)
	var resp server.CleanResponse
	sid, err := p.serveJSON(i, reqClean, http.MethodPost, "/v1/clean", "application/json", body, &resp)
	if err != nil {
		return "", err
	}
	var req server.CleanRequest
	if err := p.rec.do(i, sid, reqClean, "server.decode", false, func() error { return json.Unmarshal(body, &req) }); err != nil {
		return "", err
	}
	return resp.ID, p.cleanSeq(i, sid, reqClean, p.byID[req.Deployment], req.Readings, resp.ID)
}

// batch replays POST /v1/clean/batch.
func (p *replayer) batch(i, tag int, d *replayDep) error {
	body := d.in.batchBody(d.id, tag)
	var resp []server.BatchCleanResult
	sid, err := p.serveJSON(i, reqBatch, http.MethodPost, "/v1/clean/batch", "application/json", body, &resp)
	if err != nil {
		return err
	}
	var req server.BatchCleanRequest
	if err := p.rec.do(i, sid, reqBatch, "server.decode", false, func() error { return json.Unmarshal(body, &req) }); err != nil {
		return err
	}
	if len(resp) != len(req.Sequences) {
		return fmt.Errorf("replay batch: %d results for %d sequences", len(resp), len(req.Sequences))
	}
	for j, seq := range req.Sequences {
		if err := p.cleanSeq(i, sid, reqBatch, p.byID[req.Deployment], seq, resp[j].ID); err != nil {
			return err
		}
	}
	return nil
}

// cleanSeq is the decomposed clean of one sequence: l-sequence, build, query
// engine and graph stats on the request path; the WAL put off it.
func (p *replayer) cleanSeq(i, parent int, kind string, d *replayDep, seq rfidclean.ReadingSequence, id string) error {
	if d == nil {
		return errors.New("replay: clean names an unknown deployment")
	}
	var ls *core.LSequence
	err := p.rec.do(i, parent, kind, "prior.lsequence", false, func() (err error) {
		ls, err = d.sys.Prior.LSequence(seq)
		return err
	})
	if err != nil {
		return err
	}
	ex := &core.BuildExplain{}
	var g *core.Graph
	bid := p.rec.begin(i, parent, kind, "core.build", false)
	g, err = core.Build(ls, d.ic, &core.Options{EndLatency: constraints.LenientEnd, Explain: ex})
	p.rec.end(bid)
	if err != nil {
		return fmt.Errorf("core.build: %w", err)
	}
	p.rec.phases(bid, ex)
	return p.finish(i, parent, kind, d, g, id)
}

// finish is the common tail of a clean and a smooth: wrap the graph in a
// query engine, take its stats for the answer, and put it to the WAL.
func (p *replayer) finish(i, parent int, kind string, d *replayDep, g *core.Graph, id string) error {
	var eng *query.Engine
	_ = p.rec.do(i, parent, kind, "query.engine", false, func() error {
		eng = query.NewEngine(g, d.sys.Plan.NumLocations())
		return nil
	})
	var st core.Stats
	_ = p.rec.do(i, parent, kind, "core.stats", false, func() error {
		st = g.Stats()
		return nil
	})
	p.rec.count("core.graph_nodes", float64(st.Nodes))
	if p.setup {
		p.graphs[id] = built{g: g, eng: eng}
		return nil
	}
	var buf bytes.Buffer
	if err := p.rec.do(i, parent, kind, "persist.encode", true, func() error { return g.Encode(&buf) }); err != nil {
		return err
	}
	p.rec.count("persist.put_kb", float64(buf.Len())/1e3)
	rec := persist.Record{Op: "put", ID: id, Dep: d.id, Data: bytes.TrimSpace(buf.Bytes())}
	if err := p.rec.do(i, parent, kind, "persist.append", true, func() error { return p.log.Append(rec) }); err != nil {
		return err
	}
	return p.rec.do(i, parent, kind, "persist.fsync", true, p.log.Sync)
}

// query replays a stay, match or top request on a prefilled trajectory.
func (p *replayer) query(i int, o op, d *replayDep) error {
	id := p.targets[o.Dep][o.Tag]
	kind := requestKind(o.Kind)
	sid, _, err := p.serve(i, kind, http.MethodGet, queryPath(o, id), "", nil)
	if err != nil {
		return err
	}
	t, ok := p.graphs[id]
	if !ok {
		return fmt.Errorf("replay: no decomposed graph for %s", id)
	}
	switch o.Kind {
	case kindStay:
		return p.rec.do(i, sid, kind, "query.stay", false, func() error {
			_, err := t.eng.Stay(o.T)
			return err
		})
	case kindPattern:
		return p.rec.do(i, sid, kind, "query.match", false, func() error {
			pat, err := d.sys.ParsePattern(o.Pattern)
			if err != nil {
				return err
			}
			_, err = t.eng.Trajectory(pat)
			return err
		})
	default:
		return p.rec.do(i, sid, kind, "query.top", false, func() error {
			t.g.TopK(o.K)
			return nil
		})
	}
}

// stream replays one session: open, the binary reading chunks (each reading
// through the prior's candidates and the incremental state), the optional
// mid-stream smooth and the closing smooth.
func (p *replayer) stream(i int, o op, d *replayDep) error {
	body := d.in.openBody(d.id, o.Tag)
	var opened struct {
		ID string `json:"id"`
	}
	sid, err := p.serveJSON(i, reqOpen, http.MethodPost, "/v1/stream", "application/json", body, &opened)
	if err != nil {
		return err
	}
	var req server.StreamOpenRequest
	if err := p.rec.do(i, sid, reqOpen, "server.decode", false, func() error { return json.Unmarshal(body, &req) }); err != nil {
		return err
	}
	st := core.NewBuildState(d.ic)
	path := "/v1/stream/" + opened.ID
	chunks := d.in.chunks(o.Tag)
	for c, chunk := range chunks {
		sid, _, err := p.serve(i, reqReadings, http.MethodPost, path+"/readings", server.ContentTypeBinary, chunk)
		if err != nil {
			return err
		}
		var rs []rfidclean.Reading
		if err := p.rec.do(i, sid, reqReadings, "server.codec", false, func() (err error) {
			rs, err = server.DecodeStreamReadings(chunk)
			return err
		}); err != nil {
			return err
		}
		for _, r := range rs {
			var cands []core.Candidate
			if err := p.rec.do(i, sid, reqReadings, "prior.candidates", false, func() (err error) {
				cands, err = d.sys.Candidates(r.Readers)
				return err
			}); err != nil {
				return err
			}
			if err := p.rec.do(i, sid, reqReadings, "core.observe", false, func() error { return st.Observe(cands) }); err != nil {
				return err
			}
		}
		if o.Smooth && c == smoothAfter(len(chunks)) {
			var resp server.CleanResponse
			sid, err := p.serveJSON(i, reqSmooth, http.MethodPost, path+"/smooth", "", nil, &resp)
			if err != nil {
				return err
			}
			if err := p.smooth(i, sid, reqSmooth, d, st, resp.ID); err != nil {
				return err
			}
		}
	}
	var closed server.StreamCloseResponse
	sid, err = p.serveJSON(i, reqClose, http.MethodDelete, path, "", nil, &closed)
	if err != nil {
		return err
	}
	if closed.Trajectory == nil {
		return fmt.Errorf("replay: closing %s stored no trajectory", opened.ID)
	}
	return p.smooth(i, sid, reqClose, d, st, closed.Trajectory.ID)
}

func (p *replayer) smooth(i, parent int, kind string, d *replayDep, st *core.BuildState, id string) error {
	var g *core.Graph
	err := p.rec.do(i, parent, kind, "core.smooth", false, func() (err error) {
		g, err = st.Smooth(&core.Options{EndLatency: constraints.LenientEnd, Explain: &core.BuildExplain{}})
		return err
	})
	if err != nil {
		return err
	}
	return p.finish(i, parent, kind, d, g, id)
}

// probeOps returns probesPerKind ops of every HTTP op kind missing from the
// workload's mix, so that every layer has replayed calls on every workload,
// idle layers included. Probe queries ask the first probeTargets prefilled
// trajectories of each deployment.
func probeOps(w workload, deps []*depInput, seed uint64) []op {
	rng := stats.NewRNG(seed)
	var out []op
	for _, kind := range []string{kindClean, kindBatch, kindStream, kindStay, kindPattern, kindTop} {
		if w.hasKind(kind) {
			continue
		}
		for j := 0; j < probesPerKind; j++ {
			o := op{Kind: kind, Dep: j % len(deps), Tag: j / len(deps), Smooth: j%2 == 0}
			switch kind {
			case kindStay, kindPattern, kindTop:
				o.Tag %= probeTargets
				o.T = j * sequenceSeconds / probesPerKind
				o.K = 3
				o.Pattern = deps[o.Dep].pattern(rng)
			}
			out = append(out, o)
		}
	}
	return out
}

// recoverOnce replays one restart: server.Open on a copy of the data
// directory the end-to-end run left behind, whole, then decomposed into the
// deployment decode and calibration, the snapshot and WAL replay and the
// graph decode it performs. The copy is closed and removed untimed.
func recoverOnce(rec *recorder, i int, src, dst string, budget int64) error {
	if err := copyDir(src, dst); err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	sid := rec.begin(i, -1, reqRestart, "server.serve", false)
	srv, err := server.Open(server.Options{DataDir: dst, MaxStoreBytes: budget, SnapshotInterval: -1, FlightInterval: -1})
	rec.end(sid)
	if err != nil {
		return err
	}
	defer srv.Close()
	var doc struct {
		Deployments []struct {
			ID   string          `json:"id"`
			Data json.RawMessage `json:"data"`
		} `json:"deployments"`
	}
	if err := rec.do(i, sid, reqRestart, "persist.read", false, func() error {
		raw, err := os.ReadFile(filepath.Join(dst, "deployments.json"))
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, &doc)
	}); err != nil {
		return err
	}
	plans := map[string]*rfidclean.Plan{}
	for _, de := range doc.Deployments {
		var dep *rfidclean.Deployment
		if err := rec.do(i, sid, reqRestart, "deployment.decode", false, func() (err error) {
			dep, err = rfidclean.DecodeDeployment(bytes.NewReader(de.Data))
			return err
		}); err != nil {
			return err
		}
		if err := rec.do(i, sid, reqRestart, "deployment.system", false, func() error {
			_, err := dep.System()
			return err
		}); err != nil {
			return err
		}
		plans[de.ID] = dep.Plan
	}
	start := time.Now()
	latest := map[string]persist.Record{}
	if err := rec.do(i, sid, reqRestart, "persist.replay", false, func() error {
		for _, name := range []string{"trajectories.snap", "trajectories.wal"} {
			if _, _, err := persist.ReplayLog(filepath.Join(dst, name), func(r persist.Record) error {
				switch r.Op {
				case "put":
					latest[r.ID] = r
				case "del":
					delete(latest, r.ID)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := rec.do(i, sid, reqRestart, "persist.decode", false, func() error {
		for _, r := range latest {
			if _, err := rfidclean.DecodeCleaned(bytes.NewReader(r.Data), plans[r.Dep]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if len(latest) > 0 {
		rec.count("persist.replay_ms_per_record", ms(time.Since(start))/float64(len(latest)))
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeBudget is the workload's -max-store-bytes, 0 (unbounded) when unset.
func (b *bench) storeBudget() int64 {
	for i := 0; i+1 < len(b.w.Daemon); i += 2 {
		if b.w.Daemon[i] == "-max-store-bytes" {
			n, _ := strconv.ParseInt(b.w.Daemon[i+1], 10, 64) // validated by the daemon in the end-to-end run
			return n
		}
	}
	return 0
}

// replayCounts is how much one replay pass ran, so that the untraced pass
// can run the same.
type replayCounts struct {
	Recoveries int `json:"recoveries"`
	Ops        int `json:"ops"`
	Probes     int `json:"probes"`
}

// replayPass runs one replay pass: recoveries of dataDir, the probes and
// the plan's first ops. A zero field of want means as many as the budget
// allows. It returns the recorder, what ran and the recorded work's wall
// time (set-up excluded).
func (b *bench) replayPass(ctx context.Context, on bool, want replayCounts, dataDir string) (*recorder, replayCounts, time.Duration, error) {
	rec := newRecorder(on)
	var got replayCounts
	dir, err := os.MkdirTemp(b.work, "replay-")
	if err != nil {
		return nil, got, 0, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	limit, budget := want.Recoveries, time.Duration(0)
	if limit == 0 {
		limit, budget = replayRecoveries, recoveryBudget
	}
	for got.Recoveries < limit && (got.Recoveries == 0 || budget == 0 || time.Since(start) < budget) {
		if err := ctx.Err(); err != nil {
			return nil, got, 0, err
		}
		if err := recoverOnce(rec, got.Recoveries, dataDir, filepath.Join(dir, "data"), b.storeBudget()); err != nil {
			return nil, got, 0, fmt.Errorf("recovery %d: %w", got.Recoveries, err)
		}
		got.Recoveries++
	}
	took := time.Since(start)

	p, err := b.newReplayer(rec, dir)
	if err != nil {
		return nil, got, 0, err
	}
	defer p.close()
	// Probes run first, while the prefilled trajectories they ask are still
	// in a store whose budget the plan's cleans may exhaust.
	start = time.Now()
	probes := probeOps(b.w, b.plan.Deps, b.seed)
	if got.Probes, err = p.run(ctx, probes, got.Recoveries, len(probes), 0); err != nil {
		return nil, got, 0, err
	}
	limit, budget = want.Ops, 0
	if limit == 0 {
		limit, budget = replayOps, replayBudget
	}
	got.Ops, err = p.run(ctx, b.plan.Ops, got.Recoveries+got.Probes, limit, budget)
	return rec, got, took + time.Since(start), err
}
