package serve

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"prmsel/internal/resilience"
	"prmsel/internal/store"
)

// resilienceTestServer builds a server with the brownout loop wired but
// its controller idle (no pressure), so tests can drive apply directly.
func resilienceTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{
		Registry: fig1Registry(t),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Logf:     func(string, ...any) {},
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestBrownoutTierCeilingDegradesAndRecovers drives the actuator
// directly: brownout2 must answer from the AVI baseline with a labeled
// tier reason, and — because degraded answers are never cached — the
// same query must return to the exact tier the moment the state clears.
func TestBrownoutTierCeilingDegradesAndRecovers(t *testing.T) {
	srv, ts := resilienceTestServer(t)
	if srv.res == nil {
		t.Fatal("brownout loop not wired")
	}
	srv.res.apply(resilience.Brownout2)
	const q = `{"query":"FROM People p WHERE p.Income = high"}`
	resp, out := postEstimate(t, ts.URL, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if out["tier"] != "avi" {
		t.Fatalf("tier = %v, want avi under brownout2 (body %v)", out["tier"], out)
	}
	if reason, _ := out["tier_reason"].(string); !strings.Contains(reason, "brownout") {
		t.Fatalf("tier_reason = %q, want a brownout label", reason)
	}

	srv.res.apply(resilience.Normal)
	resp, out = postEstimate(t, ts.URL, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after recovery = %d, body %v", resp.StatusCode, out)
	}
	if out["tier"] != "exact" {
		t.Fatalf("tier after recovery = %v, want exact (degraded answer must not be cached)", out["tier"])
	}
	cache := out["cache"].(map[string]any)
	if cache["hit"] == true {
		t.Fatalf("recovered answer served from cache; degraded result leaked in")
	}
}

// TestBrownout1SkipsExactTier checks the gentler ceiling: inference
// still runs, but the exact-elimination tier is skipped in favor of the
// sampling tier.
func TestBrownout1SkipsExactTier(t *testing.T) {
	srv, ts := resilienceTestServer(t)
	srv.res.apply(resilience.Brownout1)
	defer srv.res.apply(resilience.Normal)
	resp, out := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Education = college"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if out["tier"] == "exact" {
		t.Fatalf("tier = exact under brownout1, want a degraded tier (body %v)", out)
	}
	if reason, _ := out["tier_reason"].(string); reason == "" {
		t.Fatalf("degraded answer lacks tier_reason: %v", out)
	}
}

// TestShedServesHitsRefusesMisses is the shed contract: a warmed cache
// entry still answers 200, while a cache-missing query gets a structured
// 503 with Retry-After, on both the single and the batch endpoint.
func TestShedServesHitsRefusesMisses(t *testing.T) {
	srv, ts := resilienceTestServer(t)
	const warm = `{"query":"FROM People p WHERE p.HomeOwner = true"}`
	if resp, out := postEstimate(t, ts.URL, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d, body %v", resp.StatusCode, out)
	}

	srv.res.apply(resilience.Shed)
	defer srv.res.apply(resilience.Normal)

	resp, out := postEstimate(t, ts.URL, warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit under shed: status = %d, body %v", resp.StatusCode, out)
	}
	if hit := out["cache"].(map[string]any)["hit"]; hit != true {
		t.Fatalf("warmed query missed the cache under shed: %v", out)
	}

	resp, out = postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = low AND p.HomeOwner = false"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cache miss under shed: status = %d, want 503 (body %v)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 lacks Retry-After")
	}
	if reason, _ := out["reason"].(string); !strings.Contains(reason, "shed") {
		t.Fatalf("shed 503 reason = %q, want a shed explanation", reason)
	}
	if srv.res.shedTotal.Value() == 0 {
		t.Fatal("shed counter did not move")
	}

	// Batch: the missing item fails in place, the batch stays 200.
	resp, bout := postJSON(t, ts.URL, "/v1/estimate/batch",
		`{"queries":["FROM People p WHERE p.Income = low"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %v", resp.StatusCode, bout)
	}
	item := bout["items"].([]any)[0].(map[string]any)
	if msg, _ := item["error"].(string); !strings.Contains(msg, "shed") {
		t.Fatalf("batch item error = %q, want a shed refusal", msg)
	}
}

// TestWALBreakerFailsIngestFast trips the WAL breaker and checks that
// ingest requests are refused up front — structured 503, Retry-After —
// without grinding row resolution against a broken log.
func TestWALBreakerFailsIngestFast(t *testing.T) {
	reg, _ := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: 1 << 20})
	srv, ts := durableServer(t, reg, Config{})
	t.Cleanup(srv.Close)
	if srv.res == nil {
		t.Fatal("brownout loop not wired")
	}
	for i := 0; i < 5; i++ {
		srv.res.walBr.Record(store.ErrWALBroken)
	}
	if got := srv.res.walBr.State(); got != resilience.BreakerOpen {
		t.Fatalf("walBr state = %v after 5 failures, want open", got)
	}
	resp, out := postJSON(t, ts.URL, "/v1/ingest",
		`{"row":{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with open breaker: status = %d, want 503 (body %v)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker-open 503 lacks Retry-After")
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "wal.append") {
		t.Fatalf("breaker-open error = %q, want the breaker named", msg)
	}
}

// TestHealthzAndMetricsExposeResilience pins the operator surface: the
// /healthz resilience block and the prm_resilience_* / prm_breaker_*
// series.
func TestHealthzAndMetricsExposeResilience(t *testing.T) {
	_, ts := resilienceTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"resilience"`, `"state": "normal"`, `"store.persist"`, `"wal.append"`, `"ingest.refit"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/healthz lacks %s:\n%s", want, body)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"prm_resilience_state 0", "prm_resilience_pressure", `prm_breaker_state{breaker="wal.append"} 0`} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestResilienceApplyUnderConcurrentLoad exercises the actuators — cache
// resize, admission retune, tier ceiling — while estimate traffic runs,
// for the race detector's benefit.
func TestResilienceApplyUnderConcurrentLoad(t *testing.T) {
	srv, ts := resilienceTestServer(t)
	states := []resilience.State{
		resilience.Brownout1, resilience.Brownout2, resilience.Shed, resilience.Normal,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"query":"FROM People p WHERE p.Education = college AND p.Income = %s"}`,
					[]string{"low", "medium", "high"}[(g+i)%3])
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d: 503 without Retry-After", g)
						return
					}
				default:
					t.Errorf("worker %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		srv.res.apply(states[i%len(states)])
	}
	srv.res.apply(resilience.Normal)
	close(stop)
	wg.Wait()
	if got := srv.tierCeiling(); got != tierCeilExact {
		t.Fatalf("tier ceiling = %d after returning to normal, want exact", got)
	}
}
