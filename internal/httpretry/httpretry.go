// Package httpretry is the repo's shared retrying HTTP client: bounded
// attempts with jittered exponential backoff on connection errors and
// retryable statuses (429, 502, 503, 504), honoring the server's own
// Retry-After header — a prmserved protective 503 says exactly how long
// to stay away, and a client that sleeps its own fixed delay instead
// either hammers a shedding server or wastes time it was not asked to
// wait. prmquery's -server mode and the prmgate rollout path both speak
// to prmserved through this client.
package httpretry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// jitterFrac randomizes each backoff by ±this fraction, so a fleet of
// clients retrying a recovering server decorrelates.
const jitterFrac = 0.2

// Config tunes a Client. Every zero field gets a default from New.
type Config struct {
	// MaxAttempts bounds the total tries per request (default 3).
	MaxAttempts int
	// BaseDelay is the backoff after the first failure; each further
	// failure doubles it (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// MaxRetryAfter caps how long an honored Retry-After header may hold
	// the client (default 5s) — a server asking for minutes is answered
	// by giving up after the attempt budget instead.
	MaxRetryAfter time.Duration
	// Client is the underlying transport (default: http.Client with a
	// 10s timeout).
	Client *http.Client
	// Seed drives the jitter draw (0 seeds from the clock).
	Seed int64
}

// Client retries idempotent-shaped requests. All methods are safe for
// concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Client from cfg with defaults applied.
func New(cfg Config) *Client {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 5 * time.Second
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{cfg: cfg, hc: hc, rng: rand.New(rand.NewSource(seed))}
}

// Retryable reports whether a response status is worth retrying: the
// server refused this attempt but another may land (pushback and
// gateway failures), as opposed to a 4xx/5xx that will repeat.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfter parses a response's Retry-After header as delay seconds
// (the only form prmserved emits), reporting ok=false when absent or
// not a positive integer.
func RetryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs <= 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Do sends the request, retrying connection errors and retryable
// statuses up to MaxAttempts. A request with a body must carry GetBody
// (as Post arranges) or it is sent exactly once. The returned response
// is the last attempt's; earlier retryable responses are drained and
// closed so their connections are reused.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := c.hc.Do(req)
		retryAfter := time.Duration(0)
		if err != nil {
			lastErr = err
		} else if !Retryable(resp.StatusCode) {
			return resp, nil
		} else {
			lastErr = fmt.Errorf("httpretry: server returned %s", resp.Status)
			if d, ok := RetryAfter(resp); ok {
				retryAfter = d
			}
		}
		// Out of attempts, or a one-shot body: hand back what we have.
		canRebuild := req.Body == nil || req.GetBody != nil
		if attempt >= c.cfg.MaxAttempts || !canRebuild || req.Context().Err() != nil {
			if err != nil {
				return nil, lastErr
			}
			return resp, nil
		}
		if err == nil {
			// Reuse the connection for the retry.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		if err := c.sleep(req.Context(), c.delay(attempt, retryAfter)); err != nil {
			return nil, fmt.Errorf("httpretry: %w (after: %v)", err, lastErr)
		}
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, fmt.Errorf("httpretry: rebuild request body: %w", berr)
			}
			req.Body = body
		}
	}
}

// Post sends a JSON-ish POST whose body is a byte slice, which makes it
// safely replayable across retries.
func (c *Client) Post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(body)), nil
	}
	return c.Do(req)
}

// Get sends a GET with retries.
func (c *Client) Get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// delay picks the wait before the next attempt: the server's Retry-After
// when it gave one (capped at MaxRetryAfter), the jittered exponential
// backoff otherwise.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > c.cfg.MaxRetryAfter {
			retryAfter = c.cfg.MaxRetryAfter
		}
		return retryAfter
	}
	c.mu.Lock()
	u := c.rng.Float64()
	c.mu.Unlock()
	return Backoff(attempt, c.cfg.BaseDelay, c.cfg.MaxDelay, jitterFrac, u)
}

// Backoff is the jittered exponential delay before retrying after the
// given 1-based failed attempt: base·2^(attempt-1), capped at maxDelay,
// then moved by (2u-1)·frac of itself and floored at zero. u is a uniform
// draw in [0, 1) from the caller's own source, so each caller keeps its
// RNG, its lock and, given a seed, a reproducible delay sequence.
func Backoff(attempt int, base, maxDelay time.Duration, frac, u float64) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	d += time.Duration((u*2 - 1) * frac * float64(d))
	if d < 0 {
		d = 0
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
