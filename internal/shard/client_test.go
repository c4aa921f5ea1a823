package shard

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// deadPort reserves a TCP port and closes it, so dialing it is a
// deterministic connection-refused.
func deadPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestClientRetriesConnectionRefused: a refused connection is retried up to
// the budget, each retry is reported, and the final error still surfaces.
func TestClientRetriesConnectionRefused(t *testing.T) {
	c := NewClient(0, deadPort(t))
	c.timeout = time.Second
	var retries atomic.Int32
	c.onRetry = func(int) { retries.Add(1) }
	var transport atomic.Int32
	c.onResult = func(_ int, class string, _ float64) {
		if class == classTransport {
			transport.Add(1)
		}
	}
	_, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err == nil {
		t.Fatal("Do against a closed port succeeded")
	}
	if got := retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2 (the full budget)", got)
	}
	if got := transport.Load(); got != 1 {
		t.Fatalf("transport outcomes = %d, want exactly 1 for the whole attempt", got)
	}
}

// TestClientNoRetryOnTimeout: a shard that accepts the connection but is
// too slow hits the per-request deadline, and the deadline is final — no
// retry doubles the slow shard's load.
func TestClientNoRetryOnTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()

	c := NewClient(0, slow.URL)
	c.timeout, c.retries = 50*time.Millisecond, 3
	var retries atomic.Int32
	c.onRetry = func(int) { retries.Add(1) }
	start := time.Now()
	_, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err == nil {
		t.Fatal("Do against a stalled shard succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want a deadline error", err)
	}
	if got := retries.Load(); got != 0 {
		t.Fatalf("retries = %d, want 0: timeouts must not be retried", got)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Do took %s; the 50ms deadline did not bound it", elapsed)
	}
}

// TestClientSuccessAfterWorkerComesBack: the happy path reports the status
// class and no retries.
func TestClientSuccessAfterWorkerComesBack(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ok.Close()
	c := NewClient(3, ok.URL)
	c.timeout = time.Second
	var gotShard atomic.Int32
	var gotClass atomic.Value
	c.onResult = func(shard int, class string, _ float64) {
		gotShard.Store(int32(shard))
		gotClass.Store(class)
	}
	resp, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotShard.Load() != 3 || gotClass.Load() != classOK {
		t.Fatalf("observed (shard=%d, class=%v), want (3, %s)", gotShard.Load(), gotClass.Load(), classOK)
	}
}

// TestRetryableClassification: only connection-level errors qualify.
func TestRetryableClassification(t *testing.T) {
	if retryable(context.DeadlineExceeded) {
		t.Error("deadline exceeded must not be retryable")
	}
	if retryable(context.Canceled) {
		t.Error("cancellation must not be retryable")
	}
	if retryable(errors.New("decode failed")) {
		t.Error("arbitrary errors must not be retryable")
	}
	if !retryable(&net.OpError{Op: "dial", Err: errors.New("connection refused")}) {
		t.Error("a dial error must be retryable")
	}
}
