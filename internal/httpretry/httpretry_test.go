package httpretry

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetriesUntilSuccess(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxRetryAfter: 5 * time.Millisecond, Seed: 1})
	resp, err := c.Post(context.Background(), ts.URL, "application/json", []byte(`{"q":1}`))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"q":1}` {
		t.Fatalf("retried request body not replayed: got %q", body)
	}
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want 3", hits.Load())
	}
}

func TestExhaustionReturnsLastResponse(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxRetryAfter: time.Millisecond, Seed: 1})
	resp, err := c.Post(context.Background(), ts.URL, "application/json", []byte(`{}`))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the final 503 passed through", resp.StatusCode)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want exactly MaxAttempts", hits.Load())
	}
}

func TestConnectionErrorsRetry(t *testing.T) {
	// A server that dies after the first response: the retry hits a
	// refused connection and the client reports the transport error once
	// attempts run out.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	url := ts.URL
	ts.Close()

	c := New(Config{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	start := time.Now()
	_, err := c.Get(context.Background(), url)
	if err == nil {
		t.Fatal("expected a transport error from a closed server")
	}
	// Three attempts with ~1-2-4ms backoff should still be quick.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("retry loop took %v; backoff not bounded", d)
	}
}

func TestFourXXNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	resp, err := c.Get(context.Background(), ts.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if hits.Load() != 1 {
		t.Fatalf("a 400 was retried: %d hits", hits.Load())
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	var firstTwo [2]time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= 2 {
			firstTwo[n-1] = time.Now()
		}
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// BaseDelay of a microsecond: if the gap between attempts is near a
	// second, the client slept the server's Retry-After, not its own
	// backoff.
	c := New(Config{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxRetryAfter: 2 * time.Second, Seed: 1})
	resp, err := c.Get(context.Background(), ts.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	resp.Body.Close()
	if gap := firstTwo[1].Sub(firstTwo[0]); gap < 500*time.Millisecond {
		t.Fatalf("gap between attempts %v; Retry-After: 1 was not honored", gap)
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := New(Config{MaxAttempts: 5, MaxRetryAfter: time.Minute, Seed: 1})
	start := time.Now()
	_, err := c.Get(ctx, ts.URL)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; the backoff sleep ignored the context", d)
	}
}

// TestBackoff pins the shared delay formula: base doubled per failed
// attempt up to maxDelay, then moved by (2u-1)·frac of itself, never negative.
// The gate's one-attempt pause with frac 0.5 is d·(0.5+u).
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		attempt        int
		base, maxDelay time.Duration
		frac, u        float64
		want           time.Duration
	}{
		{1, 100 * ms, 2000 * ms, 0.2, 0.5, 100 * ms},
		{3, 100 * ms, 2000 * ms, 0.2, 0.5, 400 * ms},
		{9, 100 * ms, 2000 * ms, 0.2, 0.5, 2000 * ms},
		{2, 100 * ms, 2000 * ms, 0.2, 0, 160 * ms},
		{1, 40 * ms, 40 * ms, 0.5, 0.25, 30 * ms},
		{1, 100 * ms, 100 * ms, 3, 0, 0},
	}
	for _, c := range cases {
		if got := Backoff(c.attempt, c.base, c.maxDelay, c.frac, c.u); got != c.want {
			t.Errorf("Backoff(%d, %v, %v, %v, %v) = %v, want %v", c.attempt, c.base, c.maxDelay, c.frac, c.u, got, c.want)
		}
	}
}
