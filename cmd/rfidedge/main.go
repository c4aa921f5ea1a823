// Command rfidedge bridges RFID reader hardware to a rfidcleand daemon: the
// missing first hop of the cleaning pipeline. It speaks a go-feig-style
// reader API on one side — poll GET /scan for the latest inventory, or
// subscribe to the reader's GET /events/ eventsource — and the daemon's
// streaming-session API on the other, so tag sightings flow from an antenna
// into a live cleaning session without any client glue.
//
// Usage:
//
//	rfidedge -daemon http://cleaner:8080 -reader http://feig:1666 -deployment d1 \
//	         -max-speed 2 -min-stay 5
//
// The adapter opens one streaming session, then batches scan reports into
// StreamReadingsRequest POSTs (at most -batch readings per request, flushed
// at least every -flush). Timestamps are assigned by the edge in arrival
// order — reading N is second N — which is exactly the dense timeline the
// cleaning model expects. With -binary the readings travel as the compact
// application/x-rfidclean frame codec instead of JSON.
//
// Failure handling is built for flaky warehouse networks:
//
//   - network errors and 5xx answers retry with exponential backoff
//     (-backoff to -backoff-max, at most -max-attempts tries per batch);
//   - 410 Gone (the session was reaped, evicted, or the daemon restarted)
//     re-opens a fresh session and replays every reading sent so far before
//     continuing, so the cleaned trajectory never loses its prefix;
//   - 409 Conflict (a retried POST that had in fact landed) consults the
//     session's reading count and trims the already-accepted prefix.
//
// On SIGINT/SIGTERM the pending batch is flushed and — unless -close=false —
// the session is closed with a final smooth, leaving the finished trajectory
// queryable under /v1/trajectories/{id}; the reader running dry (a stub
// reporting done) ends the same way.
//
// For demos and CI, -stub-reader starts an embedded synthetic reader (see
// stub.go) serving a generated SYN1/SYN2 trajectory over the same /scan,
// /events/ and /.status API, and points the adapter at it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rfidclean "repro"
	"repro/internal/server"
)

// config carries the adapter's settings; main fills it from flags, tests
// fill it directly.
type config struct {
	daemon      string
	reader      string
	deployment  string
	maxSpeed    float64
	minStay     int
	ttCap       int
	mode        string // poll | events
	poll        time.Duration
	batch       int
	flushEvery  time.Duration
	binary      bool
	closeOnExit bool
	backoffMin  time.Duration
	backoffMax  time.Duration
	maxAttempts int // per batch; <= 0 retries until the context ends

	stubAddr     string
	stubDataset  string
	stubDuration int
	stubStream   uint64
	stubInterval time.Duration
}

// scanReport is one reader answer: which antennas saw the tracked tag. Time
// is the reader's own tick counter, used only to discard stale polls; the
// edge assigns the session timeline itself. Done signals the reader has
// nothing further (stub readers; real hardware never sends it).
type scanReport struct {
	Time    int   `json:"time"`
	Readers []int `json:"readers"`
	Done    bool  `json:"done,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidedge: ")

	var cfg config
	flag.StringVar(&cfg.daemon, "daemon", "http://127.0.0.1:8080", "rfidcleand base URL")
	flag.StringVar(&cfg.reader, "reader", "", "reader base URL (go-feig-style /scan + /events/ API); defaults to the embedded stub when -stub-reader is set")
	flag.StringVar(&cfg.deployment, "deployment", "d1", "deployment id the session cleans against")
	flag.Float64Var(&cfg.maxSpeed, "max-speed", 2, "object max speed (m/s) for TT inference")
	flag.IntVar(&cfg.minStay, "min-stay", 5, "minimum stay (s) for LT inference")
	flag.IntVar(&cfg.ttCap, "tt-cap", 0, "TT horizon cap (0 = uncapped)")
	flag.StringVar(&cfg.mode, "mode", "poll", "how to consume the reader: poll (GET /scan) or events (GET /events/ eventsource)")
	flag.DurationVar(&cfg.poll, "poll", 250*time.Millisecond, "poll interval in poll mode")
	flag.IntVar(&cfg.batch, "batch", 16, "max readings per POST to the daemon")
	flag.DurationVar(&cfg.flushEvery, "flush", 500*time.Millisecond, "max time a reading waits before being POSTed")
	flag.BoolVar(&cfg.binary, "binary", false, "send readings as application/x-rfidclean binary frames instead of JSON")
	flag.BoolVar(&cfg.closeOnExit, "close", true, "close the session (with a final smooth) on exit")
	flag.DurationVar(&cfg.backoffMin, "backoff", 100*time.Millisecond, "initial retry backoff")
	flag.DurationVar(&cfg.backoffMax, "backoff-max", 5*time.Second, "retry backoff cap")
	flag.IntVar(&cfg.maxAttempts, "max-attempts", 10, "attempts per batch before giving up (<= 0 retries forever)")
	flag.StringVar(&cfg.stubAddr, "stub-reader", "", "serve an embedded synthetic reader on this address and feed from it")
	flag.StringVar(&cfg.stubDataset, "stub-dataset", "SYN1", "dataset the stub reader walks: SYN1 or SYN2")
	flag.IntVar(&cfg.stubDuration, "stub-duration", 120, "trajectory seconds the stub reader serves")
	flag.Uint64Var(&cfg.stubStream, "stub-stream", 1, "generation stream for the stub trajectory")
	flag.DurationVar(&cfg.stubInterval, "stub-interval", 50*time.Millisecond, "event pacing of the stub reader's eventsource")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		log.Fatal(err)
	}
}

// run feeds the daemon until the reader runs dry or ctx is cancelled, then
// flushes and (by default) closes the session with a final smooth.
func run(ctx context.Context, cfg config) error {
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.backoffMin <= 0 {
		cfg.backoffMin = 100 * time.Millisecond
	}
	if cfg.backoffMax < cfg.backoffMin {
		cfg.backoffMax = cfg.backoffMin
	}
	if cfg.mode != "poll" && cfg.mode != "events" {
		return fmt.Errorf("invalid -mode %q (want poll or events)", cfg.mode)
	}
	if cfg.stubAddr != "" {
		stub, err := newStubReader(cfg.stubDataset, cfg.stubDuration, cfg.stubStream, cfg.stubInterval)
		if err != nil {
			return fmt.Errorf("stub reader: %w", err)
		}
		ln, err := net.Listen("tcp", cfg.stubAddr)
		if err != nil {
			return fmt.Errorf("stub reader: %w", err)
		}
		stubSrv := &http.Server{Handler: stub, ReadHeaderTimeout: 10 * time.Second}
		go stubSrv.Serve(ln)
		defer stubSrv.Close()
		log.Printf("stub reader: %d %s readings on http://%s", stub.total(), cfg.stubDataset, ln.Addr())
		if cfg.reader == "" {
			cfg.reader = "http://" + ln.Addr().String()
		}
	}
	if cfg.reader == "" {
		return errors.New("one of -reader or -stub-reader is required")
	}
	cfg.daemon = strings.TrimRight(cfg.daemon, "/")
	cfg.reader = strings.TrimRight(cfg.reader, "/")

	e := &edge{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}}
	if err := e.openSession(ctx); err != nil {
		return err
	}
	log.Printf("opened session %s (deployment %s) against %s", e.sessionID, cfg.deployment, cfg.daemon)

	scans := make(chan scanReport, 64)
	srcErr := make(chan error, 1)
	go func() {
		defer close(scans)
		srcErr <- e.consume(ctx, scans)
	}()

	flush := time.NewTicker(cfg.flushEvery)
	defer flush.Stop()
	var pending []rfidclean.Reading
	running := true
	for running {
		select {
		case rep, ok := <-scans:
			if !ok {
				running = false
				break
			}
			pending = append(pending, rfidclean.Reading{Time: e.next, Readers: rfidclean.NewReaderSet(rep.Readers...)})
			e.next++
			if len(pending) >= cfg.batch {
				if err := e.send(ctx, pending); err != nil {
					return err
				}
				pending = nil
			}
		case <-flush.C:
			if len(pending) > 0 {
				if err := e.send(ctx, pending); err != nil {
					return err
				}
				pending = nil
			}
		case <-ctx.Done():
			running = false
		}
	}

	// The signal context may already be dead; the final flush and close get
	// their own grace window so a clean shutdown still lands the tail.
	finCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if len(pending) > 0 {
		if err := e.send(finCtx, pending); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
	}
	if err := <-srcErr; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("reader: %w", err)
	}
	log.Printf("fed %d readings to session %s", len(e.history), e.sessionID)
	if cfg.closeOnExit {
		if err := e.closeSession(finCtx); err != nil {
			return err
		}
	}
	return nil
}

// edge is the adapter's state: the live session id, the edge-owned timeline
// counter, and every reading the daemon has accepted (the replay buffer for
// session re-open on 410).
type edge struct {
	cfg       config
	client    *http.Client
	sessionID string
	next      int // next timestamp to assign
	history   []rfidclean.Reading
}

// consume pulls scan reports from the reader into scans until the reader is
// done or ctx ends.
func (e *edge) consume(ctx context.Context, scans chan<- scanReport) error {
	if e.cfg.mode == "events" {
		return e.consumeEvents(ctx, scans)
	}
	return e.consumePoll(ctx, scans)
}

// consumePoll drives the reader in go-feig polling mode: GET /scan on a
// fixed cadence, skipping reports whose reader tick has not advanced.
func (e *edge) consumePoll(ctx context.Context, scans chan<- scanReport) error {
	ticker := time.NewTicker(e.cfg.poll)
	defer ticker.Stop()
	last := -1
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.cfg.reader+"/scan", nil)
		if err != nil {
			return err
		}
		resp, err := e.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Printf("reader poll: %v (will retry)", err)
			continue
		}
		var rep scanReport
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			log.Printf("reader poll: bad scan body: %v (will retry)", err)
			continue
		}
		if rep.Done {
			return nil
		}
		if rep.Time >= 0 && rep.Time <= last {
			continue // inventory unchanged since the previous poll
		}
		last = rep.Time
		select {
		case scans <- rep:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// consumeEvents subscribes to the reader's eventsource and forwards every
// scan event, reconnecting with backoff when the stream drops.
func (e *edge) consumeEvents(ctx context.Context, scans chan<- scanReport) error {
	// Event streams are long-lived by design; the per-request timeout of the
	// batching client would sever them mid-subscription.
	client := &http.Client{}
	backoff := e.cfg.backoffMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.cfg.reader+"/events/", nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("eventsource status %d", resp.StatusCode)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Printf("reader eventsource: %v (reconnect in %s)", err, backoff)
			if !sleep(ctx, backoff) {
				return ctx.Err()
			}
			backoff = nextBackoff(backoff, e.cfg.backoffMax)
			continue
		}
		backoff = e.cfg.backoffMin
		done, err := e.readEventStream(ctx, resp.Body, scans)
		resp.Body.Close()
		if done || err != nil {
			return err
		}
		log.Printf("reader eventsource ended; reconnecting")
	}
}

// readEventStream parses one SSE connection, forwarding scan events until
// the stream ends. done reports a terminal done event (stub readers).
func (e *edge) readEventStream(ctx context.Context, body io.Reader, scans chan<- scanReport) (done bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "done" {
				return true, nil
			}
			if event == "scan" && data != "" {
				var rep scanReport
				if jsonErr := json.Unmarshal([]byte(data), &rep); jsonErr != nil {
					log.Printf("reader eventsource: bad scan payload: %v", jsonErr)
				} else if rep.Done {
					return true, nil
				} else {
					select {
					case scans <- rep:
					case <-ctx.Done():
						return false, ctx.Err()
					}
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data != "" {
				data += "\n"
			}
			data += strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
		// id: and comment lines are irrelevant to the scan feed.
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	return false, nil // connection dropped; caller reconnects
}

// openSession opens (or re-opens) a streaming session, retrying transient
// failures — the daemon may still be booting when the edge starts.
func (e *edge) openSession(ctx context.Context) error {
	body, err := json.Marshal(server.StreamOpenRequest{
		Deployment: e.cfg.deployment,
		MaxSpeed:   e.cfg.maxSpeed,
		MinStay:    e.cfg.minStay,
		TTCap:      e.cfg.ttCap,
	})
	if err != nil {
		return err
	}
	backoff := e.cfg.backoffMin
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.daemon+"/v1/stream", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := e.client.Do(req)
		if err == nil {
			code, respBody := drainResponse(resp)
			switch {
			case code == http.StatusCreated:
				var created struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(respBody, &created); err != nil || created.ID == "" {
					return fmt.Errorf("open session: undecodable answer %q", respBody)
				}
				e.sessionID = created.ID
				return nil
			case retryableStatus(code):
				err = fmt.Errorf("open session: daemon answered %d: %s", code, respBody)
			default:
				return fmt.Errorf("open session: daemon answered %d: %s", code, respBody)
			}
		}
		if e.cfg.maxAttempts > 0 && attempt >= e.cfg.maxAttempts {
			return fmt.Errorf("open session: giving up after %d attempts: %w", attempt, err)
		}
		log.Printf("%v (retry in %s)", err, backoff)
		if !sleep(ctx, backoff) {
			return ctx.Err()
		}
		backoff = nextBackoff(backoff, e.cfg.backoffMax)
	}
}

// send delivers one batch, surviving network errors (backoff retry), daemon
// restarts and session loss (410 → re-open and replay the full history), and
// duplicate delivery after a retried POST (409 → trim what already landed).
func (e *edge) send(ctx context.Context, batch []rfidclean.Reading) error {
	backoff := e.cfg.backoffMin
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		code, body, err := e.postReadings(ctx, batch)
		if err == nil {
			switch {
			case code == http.StatusOK:
				e.history = append(e.history, batch...)
				return nil
			case code == http.StatusGone:
				log.Printf("session %s is gone (410); re-opening and replaying %d readings",
					e.sessionID, len(e.history)+len(batch))
				if err := e.openSession(ctx); err != nil {
					return err
				}
				log.Printf("opened session %s (deployment %s) against %s", e.sessionID, e.cfg.deployment, e.cfg.daemon)
				batch = append(append([]rfidclean.Reading(nil), e.history...), batch...)
				e.history = nil
				continue // a fresh session deserves a fresh first attempt
			case code == http.StatusConflict:
				// A retried POST that had in fact landed: ask the session
				// how far it got and drop the accepted prefix.
				n, statErr := e.sessionReadings(ctx)
				if statErr != nil {
					err = fmt.Errorf("409 then status check failed: %w", statErr)
					break
				}
				trimmed := batch[:0]
				for _, rd := range batch {
					if rd.Time < n {
						e.history = append(e.history, rd)
					} else {
						trimmed = append(trimmed, rd)
					}
				}
				if len(trimmed) == 0 {
					return nil
				}
				if len(trimmed) == len(batch) {
					return fmt.Errorf("daemon rejected readings (409) without having them: %s", body)
				}
				batch = trimmed
				continue
			case retryableStatus(code):
				err = fmt.Errorf("daemon answered %d: %s", code, body)
			default:
				return fmt.Errorf("daemon rejected readings (%d): %s", code, body)
			}
		}
		if e.cfg.maxAttempts > 0 && attempt >= e.cfg.maxAttempts {
			return fmt.Errorf("send: giving up after %d attempts: %w", attempt, err)
		}
		log.Printf("send: %v (retry in %s)", err, backoff)
		if !sleep(ctx, backoff) {
			return ctx.Err()
		}
		backoff = nextBackoff(backoff, e.cfg.backoffMax)
	}
}

// postReadings performs one readings POST in the configured codec.
func (e *edge) postReadings(ctx context.Context, batch []rfidclean.Reading) (int, []byte, error) {
	var (
		body []byte
		ct   string
		err  error
	)
	if e.cfg.binary {
		body = server.EncodeStreamReadings(batch)
		ct = server.ContentTypeBinary
	} else {
		body, err = json.Marshal(server.StreamReadingsRequest{Readings: batch})
		if err != nil {
			return 0, nil, err
		}
		ct = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		e.cfg.daemon+"/v1/stream/"+e.sessionID+"/readings", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ct)
	if e.cfg.binary {
		req.Header.Set("Accept", server.ContentTypeBinary)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	code, respBody := drainResponse(resp)
	return code, respBody, nil
}

// sessionReadings asks the session how many readings it has accepted.
func (e *edge) sessionReadings(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.cfg.daemon+"/v1/stream/"+e.sessionID, nil)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	code, body := drainResponse(resp)
	if code != http.StatusOK {
		return 0, fmt.Errorf("session status %d: %s", code, body)
	}
	var st server.StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	return st.Readings, nil
}

// closeSession closes the session with a final smooth and logs the stored
// trajectory handle. A 410 means someone beat us to it — not an error worth
// failing a clean shutdown over.
func (e *edge) closeSession(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, e.cfg.daemon+"/v1/stream/"+e.sessionID, nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	code, body := drainResponse(resp)
	switch code {
	case http.StatusOK:
		var out server.StreamCloseResponse
		if err := json.Unmarshal(body, &out); err == nil && out.Trajectory != nil {
			log.Printf("closed session %s; smoothed trajectory %s (%d nodes, %d edges)",
				e.sessionID, out.Trajectory.ID, out.Trajectory.Nodes, out.Trajectory.Edges)
		} else {
			log.Printf("closed session %s", e.sessionID)
		}
		return nil
	case http.StatusGone:
		log.Printf("session %s already closed", e.sessionID)
		return nil
	default:
		return fmt.Errorf("close session: daemon answered %d: %s", code, body)
	}
}

// drainResponse reads a capped response body and closes it.
func drainResponse(resp *http.Response) (int, []byte) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode, body
}

// retryableStatus reports whether a daemon answer is worth retrying: server
// trouble, not a verdict on the readings. 429 (session budget exhausted) and
// the 4xx rejections are permanent for this session.
func retryableStatus(code int) bool {
	return code >= 500
}

// sleep waits for d or the context, reporting false when the context won.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// nextBackoff doubles the delay up to the cap.
func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		return max
	}
	return cur
}
