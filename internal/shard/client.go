package shard

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Client limits.
const (
	// requestTimeout bounds one forwarded request end to end (dial through
	// body read). Generous: a cold constraint inference on a worker can
	// take seconds.
	requestTimeout = 30 * time.Second
	// requestRetries is how many times a request is re-sent after a
	// connection-level error.
	requestRetries = 2
	// retryBaseDelay spaces retry attempts (doubled per attempt). Small on
	// purpose: the retryable failures are connection-level, where backoff
	// is about riding out a worker restart, not load shedding.
	retryBaseDelay = 25 * time.Millisecond
)

// Client issues requests to one worker shard. Request bodies are []byte —
// replayable by construction — so retrying after a connection error can
// never truncate or double-send a stream. Only connection-level errors are
// retried: a timeout means the worker is slow (retrying doubles its load),
// and any received response — even a 5xx — means the request was delivered,
// where a blind retry could re-execute a non-idempotent operation.
type Client struct {
	index   int
	base    string        // http://host:port, no trailing slash
	timeout time.Duration // requestTimeout; tests shorten it
	retries int           // requestRetries; tests change it
	http    *http.Client
	stream  *http.Client // no timeout: SSE responses outlive any fixed budget

	// onRetry and onResult feed the router's metrics; nil is fine.
	onRetry  func(shard int)
	onResult func(shard int, class string, seconds float64)
}

// NewClient builds a client for shard index at base (e.g.
// "http://127.0.0.1:9001").
func NewClient(index int, base string) *Client {
	return &Client{
		index:   index,
		base:    base,
		timeout: requestTimeout,
		retries: requestRetries,
		http:    &http.Client{},
		stream:  &http.Client{},
	}
}

// Base returns the shard's base URL.
func (c *Client) Base() string { return c.base }

// Do issues one request with the per-request timeout and bounded
// connection-error retry. uri is the path plus query ("/v1/clean",
// "/v1/trajectories?x=y"); header may be nil. The caller owns the response
// body.
func (c *Client) Do(ctx context.Context, method, uri string, header http.Header, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	resp, err := c.send(ctx, c.http, method, uri, header, body)
	if err != nil {
		cancel()
		return nil, err
	}
	// The timeout covers the body read too: wrap the body so cancel fires
	// when the caller closes it.
	resp.Body = &cancelBody{rc: resp.Body, cancel: cancel}
	return resp, nil
}

// Stream issues a request with no overall timeout — for SSE event
// subscriptions, whose responses are open-ended by design. The request
// context alone bounds it (the router passes the client connection's
// context, so a vanished subscriber tears the upstream request down).
// Connection-error retry still applies to the dial: no response bytes have
// flowed until the worker answers the headers.
func (c *Client) Stream(ctx context.Context, method, uri string, header http.Header, body []byte) (*http.Response, error) {
	return c.send(ctx, c.stream, method, uri, header, body)
}

func (c *Client) send(ctx context.Context, hc *http.Client, method, uri string, header http.Header, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, method, c.base+uri, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			if hopByHop(k) {
				continue
			}
			req.Header[k] = vs
		}
		resp, err := hc.Do(req)
		if err == nil {
			if c.onResult != nil {
				c.onResult(c.index, classOf(resp.StatusCode), time.Since(start).Seconds())
			}
			return resp, nil
		}
		lastErr = err
		if attempt >= c.retries || !retryable(err) {
			break
		}
		if c.onRetry != nil {
			c.onRetry(c.index)
		}
		select {
		case <-time.After(retryBaseDelay << attempt):
		case <-ctx.Done():
			attempt = c.retries // context gone: report what we have
		}
		if ctx.Err() != nil {
			break
		}
	}
	if c.onResult != nil {
		c.onResult(c.index, classTransport, 0)
	}
	return nil, lastErr
}

// retryable reports whether err is a connection-level failure worth
// re-sending: the request never reached a worker (dial refused, connection
// reset before the response). Context expiry — the per-request timeout or a
// vanished client — is final.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}

func classOf(status int) string {
	switch {
	case status < 300:
		return classOK
	case status < 400:
		return class3xx
	case status < 500:
		return class4xx
	default:
		return class5xx
	}
}

// hopByHop filters connection-scoped request headers out of forwarding.
func hopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "Content-Length", "Host":
		return true
	}
	return false
}

// cancelBody releases the request's timeout context when the response body
// is closed.
type cancelBody struct {
	rc interface {
		Read([]byte) (int, error)
		Close() error
	}
	cancel context.CancelFunc
}

func (b *cancelBody) Read(p []byte) (int, error) { return b.rc.Read(p) }

func (b *cancelBody) Close() error {
	err := b.rc.Close()
	b.cancel()
	return err
}
