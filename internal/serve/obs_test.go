package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prmsel/internal/obs"
)

// TestEstimateTrace: ?trace=1 returns the request's span tree alongside
// the explanation, and the stage spans account for (do not exceed) the
// request's total time.
func TestEstimateTrace(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/estimate?trace=1", "application/json",
		strings.NewReader(`{"query":"FROM People p WHERE p.Education = college AND p.Income = low"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Estimate float64       `json:"estimate"`
		Trace    *obs.SpanDump `json:"trace"`
		Explain  *struct {
			TupleVars   map[string]string
			Probability float64
			Estimate    float64
		} `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("trace=1 returned no trace")
	}
	if out.Trace.Name != "request" {
		t.Errorf("trace root = %q, want request", out.Trace.Name)
	}
	names := map[string]bool{}
	out.Trace.Visit(func(d *obs.SpanDump) { names[d.Name] = true })
	for _, want := range []string{"parse", "cache"} {
		if !names[want] {
			t.Errorf("trace lacks %q span: have %v", want, names)
		}
	}
	// On a cache miss the PRM's own spans nest under the cache span.
	if !names["estimate"] || !names["closure"] || !names["infer"] {
		t.Logf("note: inference spans absent (cache hit?): %v", names)
	}
	// Stage spans must fit inside the request: each top-level child and
	// their sum bounded by the root duration (children are sequential).
	var sum int64
	for _, c := range out.Trace.Children {
		if c.DurationMicros > out.Trace.DurationMicros {
			t.Errorf("span %s (%dµs) outlives request (%dµs)", c.Name, c.DurationMicros, out.Trace.DurationMicros)
		}
		sum += c.DurationMicros
	}
	if sum > out.Trace.DurationMicros+1000 {
		t.Errorf("children sum %dµs exceeds request %dµs", sum, out.Trace.DurationMicros)
	}

	if out.Explain == nil {
		t.Fatal("trace=1 returned no explanation")
	}
	if len(out.Explain.TupleVars) == 0 {
		t.Error("explanation has no tuple variables")
	}
	if out.Explain.Estimate != out.Estimate {
		t.Errorf("explain estimate %v != response estimate %v", out.Explain.Estimate, out.Estimate)
	}

	// Without the flag, no trace payload is attached.
	_, plain := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Education = college AND p.Income = low"}`)
	if _, ok := plain["trace"]; ok {
		t.Error("untraced request returned a trace")
	}
}

// TestStageHistograms: serving requests populates the per-stage latency
// histograms, which surface in the metrics snapshot.
func TestStageHistograms(t *testing.T) {
	srv, ts := newTestServer(t)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high AND p.Education = advanced"}`)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high AND p.Education = advanced"}`)

	snap := srv.Metrics().Snapshot()
	stages, ok := snap["stages"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot lacks stages: %v", snap)
	}
	for _, want := range []string{"parse", "cache"} {
		st, ok := stages[want].(map[string]any)
		if !ok {
			t.Fatalf("stages lack %q: %v", want, stages)
		}
		if st["obs"].(int64) < 2 {
			t.Errorf("stage %s observed %v times, want >= 2", want, st["obs"])
		}
		if _, ok := st["us_buckets"]; !ok {
			t.Errorf("stage %s lacks buckets", want)
		}
	}
	// The cache-miss request ran inference, so closure/infer have counts.
	for _, want := range []string{"closure", "infer"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stages lack %q after a cache miss: %v", want, stages)
		}
	}
}

// TestPprofMounted: the profiling endpoints are reachable through the
// service handler (mounted outside the request timeout).
func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestEstimateCancelled503: a request whose context is already cancelled
// must fail with a structured 503, not a cached or half-built answer.
func TestEstimateCancelled503(t *testing.T) {
	srv := NewServer(Config{Registry: fig1Registry(t)})
	body := `{"query":"FROM People p WHERE p.Education = high-school AND p.Income = medium AND p.HomeOwner = true"}`
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rr := httptest.NewRecorder()
	srv.handleEstimate(rr, req.WithContext(ctx))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", rr.Code, rr.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("non-JSON 503 body: %s", rr.Body)
	}
	if out["error"] == nil || out["reason"] == nil {
		t.Errorf("503 body lacks structured error: %v", out)
	}

	// The same query through an intact context succeeds — the cancelled
	// attempt was not cached as an error.
	rr2 := httptest.NewRecorder()
	srv.handleEstimate(rr2, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
	if rr2.Code != http.StatusOK {
		t.Errorf("retry after cancellation = %d, want 200; body: %s", rr2.Code, rr2.Body)
	}
}

// lockedBuf is a goroutine-safe bytes.Buffer for capturing log output.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging: every request gets an X-PRM-Trace header and one
// structured log record carrying the same id.
func TestRequestLogging(t *testing.T) {
	var buf lockedBuf
	srv := NewServer(Config{
		Registry: fig1Registry(t),
		Logger:   slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"query":"FROM People p WHERE p.Income = low"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-PRM-Trace")
	if len(id) != 16 {
		t.Fatalf("X-PRM-Trace = %q, want 16 hex chars", id)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id = %q, want no such header", got)
	}

	// The log record is written after the response body; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(buf.String(), id) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	logged := buf.String()
	if !strings.Contains(logged, id) {
		t.Fatalf("log output lacks trace id %s:\n%s", id, logged)
	}
	var rec map[string]any
	line := logged[strings.Index(logged, "{"):]
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"trace_id", "method", "path", "status", "micros"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("log record lacks %q: %v", k, rec)
		}
	}
	if rec["path"] != "/v1/estimate" || rec["status"].(float64) != 200 {
		t.Errorf("unexpected log record: %v", rec)
	}
}
