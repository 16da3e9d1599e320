package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRegistry builds a registry serving the paper's tiny Figure 1
// example — one table, instant to learn — shared across the package's
// HTTP tests.
var (
	testRegOnce sync.Once
	testReg     *Registry
	testRegErr  error
)

func fig1Registry(t *testing.T) *Registry {
	t.Helper()
	testRegOnce.Do(func() {
		testReg = NewRegistry()
		_, testRegErr = testReg.Add("fig1", BuildSpec{Dataset: "fig1"})
	})
	if testRegErr != nil {
		t.Fatalf("building fig1 model: %v", testRegErr)
	}
	return testReg
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{
		Registry: fig1Registry(t),
		// Keep request logs out of the test output.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postEstimate(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/estimate: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high","exact":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if out["model"] != "fig1" {
		t.Errorf("model = %v, want fig1", out["model"])
	}
	est, _ := out["estimate"].(float64)
	if est <= 0 {
		t.Errorf("estimate = %v, want > 0", out["estimate"])
	}
	exact, ok := out["exact"].(map[string]any)
	if !ok {
		t.Fatalf("no exact block in %v", out)
	}
	truth, _ := exact["count"].(float64)
	if truth <= 0 {
		t.Errorf("exact count = %v, want > 0", exact["count"])
	}
	if q, _ := exact["qerror"].(float64); q < 1 || q > 10 {
		t.Errorf("qerror = %v, want sane [1, 10]", exact["qerror"])
	}
	bd, ok := out["breakdown"].([]any)
	if !ok || len(bd) < 2 {
		t.Fatalf("breakdown = %v, want PRM plus baselines", out["breakdown"])
	}
	first := bd[0].(map[string]any)
	if first["estimator"] != "PRM" {
		t.Errorf("breakdown[0] = %v, want the PRM first", first["estimator"])
	}
	seen := map[string]bool{}
	for _, b := range bd {
		seen[b.(map[string]any)["estimator"].(string)] = true
	}
	for _, want := range []string{"PRM", "AVI"} {
		if !seen[want] {
			t.Errorf("breakdown lacks %s: %v", want, out["breakdown"])
		}
	}
}

func TestEstimateParseErrorHasPosition(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Nope = high"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %v)", resp.StatusCode, out)
	}
	if _, ok := out["offset"]; !ok {
		t.Errorf("parse-error response lacks offset: %v", out)
	}
	// Unknown attributes are detected at the value token (see the
	// queryparse position tests), so "high" is what the caller is pointed
	// at.
	if out["near"] != "high" {
		t.Errorf("near = %v, want high", out["near"])
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "no attribute") {
		t.Errorf("error = %q, want a no-attribute message", msg)
	}
}

func TestEstimateRejections(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"missing query", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"query":"x","nope":1}`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","query":"FROM People p WHERE p.Income = high"}`, http.StatusNotFound},
		{"unknown estimator", `{"query":"FROM People p WHERE p.Income = high","estimators":["NOPE"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, out := postEstimate(t, ts.URL, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d (body %v)", tc.name, resp.StatusCode, tc.code, out)
		}
		if out["error"] == nil {
			t.Errorf("%s: response lacks error field: %v", tc.name, out)
		}
	}
}

func TestEstimateBodyLimit(t *testing.T) {
	srv := NewServer(Config{Registry: fig1Registry(t), MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := fmt.Sprintf(`{"query":%q}`, "FROM People p WHERE p.Income = high"+strings.Repeat(" ", 1024))
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestEstimateCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	const body = `{"query":"FROM People p WHERE p.HomeOwner = true"}`
	_, first := postEstimate(t, ts.URL, body)
	if hit := first["cache"].(map[string]any)["hit"]; hit != false {
		t.Fatalf("first request reported a cache hit: %v", first["cache"])
	}
	_, second := postEstimate(t, ts.URL, body)
	if hit := second["cache"].(map[string]any)["hit"]; hit != true {
		t.Fatalf("second identical request missed the cache: %v", second["cache"])
	}
	if first["estimate"] != second["estimate"] {
		t.Fatalf("cached estimate %v differs from computed %v", second["estimate"], first["estimate"])
	}
	// Equivalent spellings share the canonical cache key: = label and
	// IN (label, label) collapse to the same predicate.
	_, third := postEstimate(t, ts.URL,
		`{"query":"FROM People p WHERE p.HomeOwner IN (true, true)"}`)
	if hit := third["cache"].(map[string]any)["hit"]; hit != true {
		t.Fatalf("canonically-equal query missed the cache: %v", third["cache"])
	}
}

// TestEstimateConcurrent hammers one endpoint with identical and distinct
// queries from many goroutines; run under -race this is the subsystem's
// concurrency regression test. For the identical query, singleflight plus
// the cache must keep the inference count at one.
func TestEstimateConcurrent(t *testing.T) {
	_, ts := newTestServer(t)
	queries := []string{
		"FROM People p WHERE p.Income = high",
		"FROM People p WHERE p.Education = college AND p.HomeOwner = true",
		"FROM People p WHERE p.Income IN (low, medium)",
		"FROM People p WHERE p.Education != advanced",
	}
	// Sequential reference answers.
	want := make([]float64, len(queries))
	for i, q := range queries {
		_, out := postEstimate(t, ts.URL, fmt.Sprintf(`{"query":%q}`, q))
		if out["estimate"] == nil {
			t.Fatalf("reference request %d failed: %v", i, out)
		}
		want[i] = out["estimate"].(float64)
	}

	const workers = 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (g + i) % len(queries)
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
					strings.NewReader(fmt.Sprintf(`{"query":%q}`, queries[qi])))
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Errorf("worker %d: decode: %v", g, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d: %v", g, resp.StatusCode, out)
					return
				}
				if got := out["estimate"].(float64); got != want[qi] {
					t.Errorf("worker %d query %d: estimate %v, want %v", g, qi, got, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEstimateSingleflight checks that concurrent identical requests on a
// cold key produce exactly one cache miss — everyone else is answered
// from the in-flight computation or the stored entry.
func TestEstimateSingleflight(t *testing.T) {
	metrics := NewMetrics()
	srv := NewServer(Config{Registry: fig1Registry(t), Metrics: metrics})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 16
	// A query no other test uses, so its cache key starts cold.
	const body = `{"query":"FROM People p WHERE p.Education = advanced AND p.Income = low"}`
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()

	snap := metrics.Snapshot()
	misses := snap["cache_misses"].(int64)
	hits := snap["cache_hits"].(int64)
	deduped := snap["deduped"].(int64)
	if misses != 1 {
		t.Errorf("cache_misses = %d, want exactly 1 for %d identical requests", misses, workers)
	}
	if hits+deduped != workers-1 {
		t.Errorf("hits=%d deduped=%d, want them to cover the other %d requests", hits, deduped, workers-1)
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Models []struct {
			Name       string         `json:"name"`
			Generation int64          `json:"generation"`
			Tables     map[string]int `json:"tables"`
			Estimators map[string]int `json:"estimators"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Models) != 1 || out.Models[0].Name != "fig1" {
		t.Fatalf("models = %+v, want just fig1", out.Models)
	}
	m := out.Models[0]
	if m.Generation < 1 {
		t.Errorf("generation = %d, want >= 1", m.Generation)
	}
	if m.Tables["People"] <= 0 {
		t.Errorf("tables = %v, want People with rows", m.Tables)
	}
	if m.Estimators["PRM"] <= 0 {
		t.Errorf("estimators = %v, want PRM with storage bytes", m.Estimators)
	}
}

func TestRebuildEndpoint(t *testing.T) {
	// A private registry: this test swaps generations and must not disturb
	// the cached answers other tests assert on.
	reg := NewRegistry()
	m, err := reg.Add("r", BuildSpec{Dataset: "fig1"})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	srv := NewServer(Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gen0 := m.Current().Generation

	resp, err := http.Post(ts.URL+"/v1/models/nope/rebuild", "application/json", nil)
	if err != nil {
		t.Fatalf("POST rebuild: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rebuild of unknown model: status %d, want 404", resp.StatusCode)
	}

	// Hold a rebuild open via its completion callback, so a second request
	// deterministically collides with it.
	release := make(chan struct{})
	if !m.Rebuild(func(*Snapshot, error) { <-release }) {
		t.Fatal("Rebuild returned false on an idle model")
	}
	resp, err = http.Post(ts.URL+"/v1/models/r/rebuild", "application/json", nil)
	if err != nil {
		t.Fatalf("POST rebuild: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent rebuild: status %d, want 409", resp.StatusCode)
	}
	close(release)
	waitFor(t, "first rebuild to finish", func() bool { return !m.Rebuilding() })
	waitFor(t, "generation to advance", func() bool { return m.Current().Generation > gen0 })

	// Now a rebuild through the endpoint alone.
	gen1 := m.Current().Generation
	resp, err = http.Post(ts.URL+"/v1/models/r/rebuild", "application/json", nil)
	if err != nil {
		t.Fatalf("POST rebuild: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rebuild: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, "endpoint rebuild to land", func() bool { return m.Current().Generation > gen1 })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
}

func TestQErrorMetrics(t *testing.T) {
	m := NewMetrics()
	m.ObserveQError(100, 50) // q = 2
	m.ObserveQError(25, 200) // q = 8
	snap := m.Snapshot()
	if got := snap["qerror_geomean"].(float64); got < 3.99 || got > 4.01 {
		t.Errorf("qerror_geomean = %v, want 4 (geomean of 2 and 8)", got)
	}
	if got := snap["qerror_max"].(float64); got != 8 {
		t.Errorf("qerror_max = %v, want 8", got)
	}
	if got := snap["exact_samples"].(int64); got != 2 {
		t.Errorf("exact_samples = %v, want 2", got)
	}
}
