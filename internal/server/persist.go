package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"log/slog"

	rfidclean "repro"
	"repro/internal/obs"
	"repro/internal/persist"
)

// This file wires the durability layer (internal/persist) into the query
// head. With Options.DataDir set, the server is a system of record instead of
// a cache:
//
//   - Deployments are snapshotted to deployments.json on every register and
//     delete — an atomic whole-file rewrite on the request path (registration
//     is rare and the file is small).
//   - The trajectory store gets an append-oriented write-ahead log
//     (trajectories.wal): stores append "put" records carrying the encoded
//     ct-graph, deletions and evictions append "del" tombstones. Appends are
//     queued by request handlers and flushed (write + fsync) by a single
//     background writer goroutine, so the clean hot path never blocks on the
//     disk; the durability window is one flush cycle (the writer wakes
//     immediately on enqueue).
//   - Every SnapshotInterval the WAL is compacted: the live store contents
//     are rewritten atomically into trajectories.snap (prefixed by a "meta"
//     record pinning the id counter) and the WAL is truncated. The trigger
//     is time alone (plus Server.Close), never WAL size: recovery replays
//     the live data plus every record written since the last compaction,
//     which within one interval can exceed the live data without bound.
//
// On boot, recovery replays snapshot then WAL — tolerating a corrupt or
// truncated log tail by keeping the valid prefix — rebuilds the store within
// its byte budget (oldest entries dropped first, counted as evictions), and
// restores the deployment and trajectory id counters so fresh ids can never
// collide with recovered (or tombstoned-then-compacted) ones.
//
// Server.Close drains the writer deterministically: the queue is flushed, a
// final compaction runs, and the files are closed before Close returns.
//
// What is not persisted: streaming sessions (clients re-open and re-send;
// closed ids answer 410 from the in-memory tombstone ring only) and explain
// reports (the explain endpoint answers 404 for recovered trajectories).

// File names inside Options.DataDir.
const (
	deploymentsFile  = "deployments.json"
	trajSnapshotFile = "trajectories.snap"
	trajWALFile      = "trajectories.wal"
)

// DefaultSnapshotInterval is how often the trajectory WAL is compacted into
// a snapshot when Options.SnapshotInterval is zero.
const DefaultSnapshotInterval = time.Minute

// persistFormatVersion versions the data-dir layout as a whole.
const persistFormatVersion = 1

// depsDoc is the deployments.json schema: the registered deployments plus
// the id counter, so ids of deleted deployments are never reissued.
type depsDoc struct {
	Version     int        `json:"version"`
	Next        int        `json:"next"`
	Deployments []depEntry `json:"deployments"`
}

type depEntry struct {
	ID   string          `json:"id"`
	Data json.RawMessage `json:"data"`
}

// metaPayload rides "meta" snapshot records; Next pins the trajectory id
// counter across compactions that erased all numbered records.
type metaPayload struct {
	Next int `json:"next"`
}

// walEntry is one queued trajectory-store mutation. Graphs are carried as
// *Cleaned and encoded in the writer goroutine, keeping JSON marshalling off
// the request path.
type walEntry struct {
	op  string // "put" | "del"
	id  string
	dep string
	c   *rfidclean.Cleaned // nil for tombstones
}

// snapItem is one live store entry handed to compaction (and recovery),
// oldest first.
type snapItem struct {
	id    string
	depID string
	c     *rfidclean.Cleaned
}

// persister owns the data directory: the WAL, the background writer, the
// compaction cycle, and the deployments snapshot. All WAL writes funnel
// through writerLoop; deployments.json rewrites are serialized by depMu and
// happen synchronously on the (rare) register/delete path.
type persister struct {
	dir          string
	snapInterval time.Duration
	m            *serverMetrics
	logger       *slog.Logger
	recorder     *obs.Recorder
	onError      func(step string) // flight-recorder dump trigger; nil when disabled

	wal *persist.Log // owned by writerLoop once start has been called

	depMu sync.Mutex // serializes deployments.json collect+write cycles

	mu     sync.Mutex
	queue  []walEntry
	closed bool

	finalCompact bool // set before stop closes; read by writerLoop after

	notify  chan struct{}      // nudges the writer (buffered, coalescing)
	barrier chan chan struct{} // flush barriers for drain()
	force   chan chan struct{} // compaction requests for compactNow()
	stop    chan struct{}
	done    chan struct{}

	// source snapshots the live trajectory store for compaction: contents
	// oldest-first plus the id counter.
	source func() ([]snapItem, int)
}

func newPersister(dir string, snapInterval time.Duration, m *serverMetrics, logger *slog.Logger, recorder *obs.Recorder) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	if snapInterval == 0 {
		snapInterval = DefaultSnapshotInterval
	}
	wal, err := persist.OpenLog(filepath.Join(dir, trajWALFile))
	if err != nil {
		return nil, err
	}
	return &persister{
		dir:          dir,
		snapInterval: snapInterval,
		m:            m,
		logger:       logger,
		recorder:     recorder,
		wal:          wal,
		notify:       make(chan struct{}, 1),
		barrier:      make(chan chan struct{}),
		force:        make(chan chan struct{}),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}, nil
}

// start launches the background writer. Recovery must be complete first —
// the writer assumes sole ownership of the WAL from here on.
func (p *persister) start() { go p.writerLoop() }

// put queues a trajectory append.
func (p *persister) put(id, depID string, c *rfidclean.Cleaned) {
	p.enqueue(walEntry{op: "put", id: id, dep: depID, c: c})
}

// del queues a deletion/eviction tombstone.
func (p *persister) del(id string) {
	p.enqueue(walEntry{op: "del", id: id})
}

func (p *persister) enqueue(e walEntry) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, e)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// drain blocks until every entry enqueued before the call has been flushed
// to the WAL. Used by tests and by shutdown; a no-op once the writer exited.
func (p *persister) drain() {
	done := make(chan struct{})
	select {
	case p.barrier <- done:
		<-done
	case <-p.done:
	}
}

// compactNow runs one flush+compaction cycle on the writer goroutine and
// waits for it. A no-op once the writer exited.
func (p *persister) compactNow() {
	done := make(chan struct{})
	select {
	case p.force <- done:
		<-done
	case <-p.done:
	}
}

// shutdown stops the writer after a final flush (and, when compact is true,
// a final compaction) and closes the WAL. It is idempotent and safe to call
// concurrently; every call waits until the writer is gone. Tests call
// shutdown(false) to simulate a crash that leaves only WAL + snapshots.
func (p *persister) shutdown(compact bool) {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	if first {
		p.finalCompact = compact
	}
	p.mu.Unlock()
	if first {
		close(p.stop)
	}
	<-p.done
}

func (p *persister) writerLoop() {
	defer close(p.done)
	var tickC <-chan time.Time
	if p.snapInterval > 0 {
		tick := time.NewTicker(p.snapInterval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-p.stop:
			p.flush()
			if p.finalCompact {
				p.compact()
			}
			if err := p.wal.Close(); err != nil {
				p.logError("closing wal", err)
			}
			return
		case <-p.notify:
			p.flush()
		case done := <-p.barrier:
			p.flush()
			close(done)
		case done := <-p.force:
			p.flush()
			p.compact()
			close(done)
		case <-tickC:
			p.flush()
			p.compact()
		}
	}
}

// flush appends and fsyncs everything queued so far. Runs on the writer
// goroutine only.
func (p *persister) flush() {
	p.mu.Lock()
	batch := p.queue
	p.queue = nil
	p.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	tr := obs.NewTrace("persist.flush")
	_, sp := obs.Start(obs.WithTrace(context.Background(), tr), "persist.flush")
	sp.Int("records", int64(len(batch)))
	var buf bytes.Buffer // reused: Append does not keep Data
	for _, e := range batch {
		rec := persist.Record{Op: e.op, ID: e.id, Dep: e.dep}
		if e.c != nil {
			buf.Reset()
			if err := e.c.Encode(&buf); err != nil {
				p.logError("encoding graph "+e.id, err)
				continue
			}
			rec.Data = bytes.TrimSpace(buf.Bytes())
		}
		if err := p.wal.Append(rec); err != nil {
			p.logError("appending to wal", err)
		}
	}
	if err := p.wal.Sync(); err != nil {
		p.logError("fsyncing wal", err)
	}
	sp.End()
	p.recorder.RecordRequest(tr, "persist.flush", time.Since(start), 0)
	p.m.persistFlushes.Inc()
	p.m.persistFlushSeconds.Observe(time.Since(start).Seconds())
	p.updateBytesGauge()
}

// compact rewrites the snapshot from the live store and truncates the WAL.
// Runs on the writer goroutine only, always after a flush, so every WAL
// record is subsumed by the snapshot it writes (the store is updated before
// entries are enqueued). A crash between the snapshot rename and the WAL
// truncation merely replays puts/dels the snapshot already reflects —
// both are idempotent.
func (p *persister) compact() {
	if p.source == nil {
		return
	}
	began := time.Now()
	items, next := p.source()
	tr := obs.NewTrace("persist.compact")
	_, sp := obs.Start(obs.WithTrace(context.Background(), tr), "persist.compact")
	sp.Int("trajectories", int64(len(items)))
	defer func() {
		sp.End()
		p.recorder.RecordRequest(tr, "persist.compact", time.Since(began), 0)
	}()
	meta, err := json.Marshal(metaPayload{Next: next})
	if err != nil {
		p.logError("encoding snapshot meta", err)
		return
	}
	recs := make([]persist.Record, 0, len(items)+1)
	recs = append(recs, persist.Record{Op: "meta", Data: meta})
	// Every graph is encoded into one buffer; the records slice it only
	// once it has stopped growing.
	var buf bytes.Buffer
	ends := make([]int, 0, len(items))
	for _, it := range items {
		if err := it.c.Encode(&buf); err != nil { // writes nothing on error
			p.logError("encoding graph "+it.id, err)
			continue
		}
		buf.Truncate(buf.Len() - 1) // Encode's trailing newline
		recs = append(recs, persist.Record{Op: "put", ID: it.id, Dep: it.depID})
		ends = append(ends, buf.Len())
	}
	start := 0
	for i, end := range ends {
		recs[i+1].Data = buf.Bytes()[start:end]
		start = end
	}
	if _, err := persist.WriteLogAtomic(filepath.Join(p.dir, trajSnapshotFile), recs); err != nil {
		p.logError("writing snapshot", err)
		return
	}
	if err := p.wal.Reset(); err != nil {
		p.logError("truncating wal", err)
		return
	}
	p.m.persistCompactions.Inc()
	p.updateBytesGauge()
}

// saveDeployments snapshots the registered deployments. collect runs inside
// the same critical section as the write, so concurrent register/delete
// calls serialize into file states that each reflect a consistent (and
// monotonically advancing) view.
func (p *persister) saveDeployments(collect func() depsDoc) error {
	p.depMu.Lock()
	defer p.depMu.Unlock()
	start := time.Now()
	doc := collect()
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("server: encoding deployments snapshot: %w", err)
	}
	if err := persist.WriteFileAtomic(filepath.Join(p.dir, deploymentsFile), data); err != nil {
		return err
	}
	p.m.persistFlushes.Inc()
	p.m.persistFlushSeconds.Observe(time.Since(start).Seconds())
	p.updateBytesGauge()
	return nil
}

// updateBytesGauge re-stats the data files and publishes their total size.
func (p *persister) updateBytesGauge() {
	total := p.wal.Size()
	for _, name := range []string{deploymentsFile, trajSnapshotFile} {
		if st, err := os.Stat(filepath.Join(p.dir, name)); err == nil {
			total += st.Size()
		}
	}
	p.m.persistBytes.Set(total)
}

func (p *persister) logError(step string, err error) {
	p.m.persistErrors.Inc()
	p.logger.Error("persist: "+step+" failed", slog.String("error", err.Error()))
	if p.onError != nil {
		p.onError(step)
	}
}

// persistDeployments snapshots the current deployments if persistence is
// enabled, logging (not failing) on error: the in-memory registration stands
// either way, and the next successful snapshot heals the file.
func (s *Server) persistDeployments() {
	if s.persist == nil {
		return
	}
	if err := s.persist.saveDeployments(s.deploymentsDoc); err != nil {
		s.persist.logError("deployments snapshot", err)
	}
}

// deploymentsDoc collects the registered deployments for the snapshot file,
// ids in numeric order so the file is stable across rewrites.
func (s *Server) deploymentsDoc() depsDoc {
	s.mu.RLock()
	doc := depsDoc{Version: persistFormatVersion, Next: s.nextDep}
	for id, d := range s.deployments {
		doc.Deployments = append(doc.Deployments, depEntry{ID: id, Data: d.raw})
	}
	s.mu.RUnlock()
	sort.Slice(doc.Deployments, func(i, j int) bool {
		return IDLess(doc.Deployments[i].ID, doc.Deployments[j].ID)
	})
	return doc
}

// recoverFrom rebuilds the server's state from a data directory: the
// deployments snapshot first (trajectories need their plans), then the
// trajectory snapshot and WAL. A corrupt or truncated log tail degrades to
// recovering the valid prefix; a corrupt deployments.json fails the boot
// loudly, since it is written atomically and everything hangs off it.
// It runs before the persister's writer starts, so tombstones it enqueues
// (for budget-dropped entries) are flushed once serving begins.
func (s *Server) recoverFrom(dir string) error {
	start := time.Now()
	tr := obs.NewTrace("persist.recover")
	_, root := obs.Start(obs.WithTrace(context.Background(), tr), "persist.recover")
	defer func() {
		root.End()
		s.recorder.RecordRequest(tr, "persist.recover", time.Since(start), 0)
	}()

	recoveredDeps, err := s.recoverDeployments(dir)
	if err != nil {
		return err
	}

	// Fold snapshot + WAL into the latest state per id. seq orders surviving
	// records by their last write, approximating storage recency; maxT tracks
	// every trajectory id ever mentioned (tombstones included) plus the
	// compaction meta counter, so fresh ids can never collide.
	type pending struct {
		rec persist.Record
		seq int
	}
	latest := make(map[string]pending)
	seq, maxT := 0, 0
	apply := func(rec persist.Record) error {
		switch rec.Op {
		case "meta":
			var mp metaPayload
			if json.Unmarshal(rec.Data, &mp) == nil && mp.Next > maxT {
				maxT = mp.Next
			}
		case "put":
			seq++
			latest[rec.ID] = pending{rec: rec, seq: seq}
			if n, ok := idNum("t", rec.ID); ok && n > maxT {
				maxT = n
			}
		case "del":
			delete(latest, rec.ID)
			if n, ok := idNum("t", rec.ID); ok && n > maxT {
				maxT = n
			}
		}
		return nil
	}
	_, snapTrunc, err := persist.ReplayLog(filepath.Join(dir, trajSnapshotFile), apply)
	if err != nil {
		return err
	}
	walN, walTrunc, err := persist.ReplayLog(filepath.Join(dir, trajWALFile), apply)
	if err != nil {
		return err
	}
	truncated := snapTrunc || walTrunc
	if truncated {
		s.logger.Warn("persist: log tail corrupt or truncated; recovered the valid prefix",
			slog.Bool("snapshot", snapTrunc), slog.Bool("wal", walTrunc))
	}

	// Rehydrate surviving records oldest-first. Records whose deployment is
	// gone (deleted after the graph was stored, tombstone not yet flushed at
	// crash time) or whose graph no longer decodes are dropped, not fatal.
	ordered := make([]pending, 0, len(latest))
	for _, pe := range latest {
		ordered = append(ordered, pe)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	items := make([]snapItem, 0, len(ordered))
	dropped := 0
	for _, pe := range ordered {
		d := s.deployments[pe.rec.Dep] // pre-serving: no lock needed
		if d == nil {
			dropped++
			s.logger.Warn("persist: dropping trajectory of unknown deployment",
				slog.String("id", pe.rec.ID), slog.String("deployment", pe.rec.Dep))
			continue
		}
		c, err := rfidclean.DecodeCleaned(bytes.NewReader(pe.rec.Data), d.dep.Plan)
		if err != nil {
			dropped++
			s.logger.Warn("persist: dropping undecodable trajectory",
				slog.String("id", pe.rec.ID), slog.String("error", err.Error()))
			continue
		}
		items = append(items, snapItem{id: pe.rec.ID, depID: pe.rec.Dep, c: c})
	}
	budgetDropped := s.store.restore(items, maxT)

	recoveredTraj := len(items) - budgetDropped
	s.metrics.recoveredDeployments.Set(int64(recoveredDeps))
	s.metrics.recoveredTrajectories.Set(int64(recoveredTraj))
	s.metrics.recoveryDropped.Set(int64(dropped + budgetDropped))
	if truncated {
		s.metrics.recoveryTruncated.Set(1)
	}
	root.Int("deployments", int64(recoveredDeps)).
		Int("trajectories", int64(recoveredTraj)).
		Int("dropped", int64(dropped+budgetDropped)).
		Int("walRecords", int64(walN))
	if recoveredDeps > 0 || recoveredTraj > 0 || truncated {
		s.logger.Info("persist: recovery complete",
			slog.Int("deployments", recoveredDeps),
			slog.Int("trajectories", recoveredTraj),
			slog.Int("dropped", dropped+budgetDropped),
			slog.Bool("truncated", truncated),
			slog.Duration("took", time.Since(start)))
	}
	return nil
}

// recoverDeployments loads deployments.json, registering each deployment
// under its original id and restoring the id counter.
func (s *Server) recoverDeployments(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, deploymentsFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("server: reading deployments snapshot: %w", err)
	}
	var doc depsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("server: corrupt %s: %w", deploymentsFile, err)
	}
	if doc.Version != persistFormatVersion {
		return 0, fmt.Errorf("server: unsupported %s version %d", deploymentsFile, doc.Version)
	}
	for _, de := range doc.Deployments {
		dep, err := rfidclean.DecodeDeployment(bytes.NewReader(de.Data))
		if err != nil {
			return 0, fmt.Errorf("server: recovering deployment %s: %w", de.ID, err)
		}
		sys, err := dep.System()
		if err != nil {
			return 0, fmt.Errorf("server: rebuilding deployment %s: %w", de.ID, err)
		}
		s.deployments[de.ID] = &deployment{
			id: de.ID, dep: dep, sys: sys, raw: de.Data,
			cache: newConstraintCache(constraintCacheEntries),
		}
		if n, ok := idNum("d", de.ID); ok && n > s.nextDep {
			s.nextDep = n
		}
	}
	if doc.Next > s.nextDep {
		s.nextDep = doc.Next
	}
	s.metrics.deployments.Set(int64(len(s.deployments)))
	return len(doc.Deployments), nil
}
