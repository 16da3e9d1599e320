package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// scripted is one stub reply: a status and, when set, a Retry-After.
type scripted struct {
	status     int
	retryAfter string
}

// stubCluster is a set of stub replicas that answer /readyz as ready and
// every other path with the next reply of one shared script, so the
// gate's attempts meet the script in order whatever ring order they walk.
type stubCluster struct {
	script []scripted

	mu     sync.Mutex
	hits   []string // the replica each attempt reached, in order
	bodies []string // the body each attempt carried
}

func newStubCluster(t *testing.T, n int, script []scripted) (*stubCluster, []string) {
	t.Helper()
	sc := &stubCluster{script: script}
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(sc.serve))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return sc, urls
}

func (sc *stubCluster) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/readyz" {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	body, _ := io.ReadAll(r.Body)
	sc.mu.Lock()
	k := len(sc.hits)
	sc.hits = append(sc.hits, "http://"+r.Host)
	sc.bodies = append(sc.bodies, string(body))
	sc.mu.Unlock()
	reply := sc.script[min(k, len(sc.script)-1)]
	if reply.retryAfter != "" {
		w.Header().Set("Retry-After", reply.retryAfter)
	}
	writeJSON(w, reply.status, map[string]any{"attempt": k})
}

// TestGateForwardingContract pins what the gate answers for each mix of
// replica outcomes: which reply is relayed, how many attempts it takes,
// and how many of them count as retries.
func TestGateForwardingContract(t *testing.T) {
	const (
		relaySynth = -1 // the gate's own 503, no replica reply relayed
	)
	cases := []struct {
		name        string
		path        string
		replicas    int
		maxAttempts int
		script      []scripted
		wantStatus  int
		wantCalls   int
		wantRetries int64
		relayed     int    // attempt whose reply is relayed, or relaySynth
		retryAfter  string // Retry-After the client sees ("" = any non-empty)
	}{
		{
			name: "pushback then success", path: "/v1/estimate", replicas: 3, maxAttempts: 3,
			script:     []scripted{{http.StatusTooManyRequests, "2"}, {http.StatusOK, ""}},
			wantStatus: http.StatusOK, wantCalls: 2, wantRetries: 1, relayed: 1,
		},
		{
			name: "pushback everywhere relays the last", path: "/v1/estimate", replicas: 3, maxAttempts: 3,
			script: []scripted{
				{http.StatusServiceUnavailable, "2"},
				{http.StatusServiceUnavailable, "3"},
				{http.StatusServiceUnavailable, "4"},
			},
			wantStatus: http.StatusServiceUnavailable, wantCalls: 3, wantRetries: 2, relayed: 2, retryAfter: "4",
		},
		{
			name: "errors everywhere synthesize a 503", path: "/v1/estimate", replicas: 2, maxAttempts: 3,
			script:     []scripted{{http.StatusInternalServerError, ""}},
			wantStatus: http.StatusServiceUnavailable, wantCalls: 2, wantRetries: 1, relayed: relaySynth,
		},
		{
			name: "attempts stop at MaxAttempts", path: "/v1/estimate/batch", replicas: 3, maxAttempts: 2,
			script:     []scripted{{http.StatusBadGateway, ""}},
			wantStatus: http.StatusServiceUnavailable, wantCalls: 2, wantRetries: 1, relayed: relaySynth,
		},
		{
			name: "a 4xx passes through without retry", path: "/v1/estimate", replicas: 3, maxAttempts: 3,
			script:     []scripted{{http.StatusBadRequest, ""}},
			wantStatus: http.StatusBadRequest, wantCalls: 1, wantRetries: 0, relayed: 0,
		},
		{
			name: "ingest gets one attempt", path: "/v1/ingest", replicas: 3, maxAttempts: 3,
			script:     []scripted{{http.StatusInternalServerError, ""}},
			wantStatus: http.StatusServiceUnavailable, wantCalls: 1, wantRetries: 0, relayed: relaySynth,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, urls := newStubCluster(t, tc.replicas, tc.script)
			g, err := NewGate(Config{
				Replicas:       urls,
				HealthInterval: time.Hour, // Start's synchronous sweep is enough
				MaxAttempts:    tc.maxAttempts,
				RetryBackoff:   time.Millisecond,
				Seed:           1,
				Logf:           func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Close)
			g.Start()
			if n := g.ring.Load().Len(); n != tc.replicas {
				t.Fatalf("ring holds %d replicas, want %d", n, tc.replicas)
			}
			ts := httptest.NewServer(g.Handler())
			t.Cleanup(ts.Close)

			const body = `{"model":"m","query":"FROM T t WHERE t.A = a"}`
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("reply is not JSON: %v", err)
			}

			sc.mu.Lock()
			hits, bodies := append([]string(nil), sc.hits...), append([]string(nil), sc.bodies...)
			sc.mu.Unlock()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d (body %v)", resp.StatusCode, tc.wantStatus, out)
			}
			if len(hits) != tc.wantCalls {
				t.Errorf("attempts = %d (%v), want %d", len(hits), hits, tc.wantCalls)
			}
			if got := g.m.retries.Value(); got != tc.wantRetries {
				t.Errorf("prm_gate_retries_total = %d, want %d", got, tc.wantRetries)
			}
			seen := make(map[string]bool)
			for i, h := range hits {
				if seen[h] {
					t.Errorf("attempt %d went back to %s; the chain has no repeats", i, h)
				}
				seen[h] = true
				if bodies[i] != body {
					t.Errorf("attempt %d carried body %q, want the client's", i, bodies[i])
				}
			}

			who := resp.Header.Get(replicaHeader)
			switch {
			case tc.relayed == relaySynth:
				if who != "" {
					t.Errorf("synthesized reply stamped %s = %q", replicaHeader, who)
				}
				if out["error"] != "all replicas failed" {
					t.Errorf("synthesized reply body = %v", out)
				}
			case tc.relayed < len(hits):
				if who != hits[tc.relayed] {
					t.Errorf("%s = %q, want attempt %d's replica %q", replicaHeader, who, tc.relayed, hits[tc.relayed])
				}
				if got, _ := out["attempt"].(float64); int(got) != tc.relayed {
					t.Errorf("relayed attempt %v's reply, want attempt %d's", out["attempt"], tc.relayed)
				}
			}
			ra := resp.Header.Get("Retry-After")
			switch {
			case tc.wantStatus < 500:
			case tc.retryAfter != "" && ra != tc.retryAfter:
				t.Errorf("Retry-After = %q, want %q", ra, tc.retryAfter)
			case ra == "":
				t.Error("a 503 from the gate lacks Retry-After")
			}
		})
	}
}
