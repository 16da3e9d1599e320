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

// TestRequestLogging: the access log is the journal's sample. Every
// request gets an X-PRM-Trace header; a request the journal keeps — an
// error, a request slower than SlowThreshold, a sampled success — writes
// exactly one record whose trace_id is that header and the journal
// event's id, and an ordinary success the journal does not keep writes
// none. With the journal disabled, errors are still logged.
func TestRequestLogging(t *testing.T) {
	const ok = `{"query":"FROM People p WHERE p.Income = low"}`
	const bad = `{"query":"FROM Nope n WHERE n.X = y"}`
	type logged struct {
		srv *Server
		h   http.Handler
		buf *lockedBuf
	}
	start := func(cfg Config) logged {
		buf := &lockedBuf{}
		cfg.Registry = fig1Registry(t)
		cfg.Logger = slog.New(slog.NewJSONHandler(buf, nil))
		cfg.DisableBrownout = true
		srv := NewServer(cfg)
		return logged{srv: srv, h: srv.Handler(), buf: buf}
	}
	// post serves one estimate and returns its trace id with the records
	// the request logged; the middleware logs before ServeHTTP returns.
	post := func(l logged, body string, wantStatus int) (string, []map[string]any) {
		t.Helper()
		before := len(l.buf.String())
		rr := httptest.NewRecorder()
		l.h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
		if rr.Code != wantStatus {
			t.Fatalf("status = %d, want %d: %s", rr.Code, wantStatus, rr.Body)
		}
		id := rr.Header().Get("X-PRM-Trace")
		if len(id) != 16 {
			t.Fatalf("X-PRM-Trace = %q, want 16 hex chars", id)
		}
		if got := rr.Header().Get("X-Trace-Id"); got != "" {
			t.Fatalf("X-Trace-Id = %q, want no such header", got)
		}
		var recs []map[string]any
		for _, line := range strings.Split(l.buf.String()[before:], "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line not JSON: %v\n%s", err, line)
			}
			recs = append(recs, rec)
		}
		return id, recs
	}
	// one checks a kept request's single record and its journal event.
	one := func(l logged, id string, recs []map[string]any, status int, reason string) {
		t.Helper()
		if len(recs) != 1 {
			t.Fatalf("kept %d request wrote %d records, want 1: %v", status, len(recs), recs)
		}
		rec := recs[0]
		for _, k := range []string{"trace_id", "method", "path", "status", "bytes", "micros"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("log record lacks %q: %v", k, rec)
			}
		}
		if rec["trace_id"] != id || rec["path"] != "/v1/estimate" || rec["status"] != float64(status) {
			t.Errorf("log record = %v, want trace_id %s, path /v1/estimate, status %d", rec, id, status)
		}
		if l.srv.journal == nil {
			return
		}
		var ev *obs.Event
		for _, e := range l.srv.journal.Events(0, nil) {
			if e.TraceID == id {
				ev = e
			}
		}
		if ev == nil || obs.TraceID(ev.ID) != id || ev.Reason != reason {
			t.Errorf("journal event for %s = %+v, want id %s and reason %q", id, ev, id, reason)
		}
	}

	idle := start(Config{SlowThreshold: time.Hour})
	if _, recs := post(idle, ok, http.StatusOK); len(recs) != 0 {
		t.Errorf("a 200 the journal does not keep wrote %d records: %v", len(recs), recs)
	}
	id, recs := post(idle, bad, http.StatusBadRequest)
	one(idle, id, recs, http.StatusBadRequest, obs.SampleError)

	slow := start(Config{SlowThreshold: time.Microsecond})
	id, recs = post(slow, ok, http.StatusOK)
	one(slow, id, recs, http.StatusOK, obs.SampleSlow)

	every := start(Config{SlowThreshold: time.Hour, JournalSampleEvery: 1})
	id, recs = post(every, ok, http.StatusOK)
	one(every, id, recs, http.StatusOK, obs.SampleUniform)

	off := start(Config{DisableJournal: true})
	if _, recs := post(off, ok, http.StatusOK); len(recs) != 0 {
		t.Errorf("a 200 with the journal disabled wrote %d records: %v", len(recs), recs)
	}
	id, recs = post(off, bad, http.StatusBadRequest)
	one(off, id, recs, http.StatusBadRequest, "")
}
