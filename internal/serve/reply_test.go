package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prmsel/internal/faults"
)

// TestPrerenderedReplyMatchesWriteJSON: a pre-rendered reply completed
// with a request's cache outcome and latency is byte for byte what
// writeJSON renders for the same response.
func TestPrerenderedReplyMatchesWriteJSON(t *testing.T) {
	cases := []struct {
		name  string
		model string
		gen   int64
		ce    cachedEstimate
	}{
		{"integral", "fig1", 1, cachedEstimate{
			query: "FROM People p WHERE p.Income = 2", estimate: 312, tier: "exact",
			breakdown: []estimatorResult{
				{Estimator: "PRM", Estimate: 312, Micros: 41},
				{Estimator: "AVI", Estimate: 298.5, Micros: 3},
			},
		}},
		{"tier reason and quoted errors", "census", 7, cachedEstimate{
			query: "FROM Census c WHERE c.Age = 3", estimate: 1234.5678, tier: "approx",
			tierReason: `bayesnet: elimination over budget: product of 1e+06 cells > "max_cells" 4096`,
			breakdown: []estimatorResult{
				{Estimator: "PRM", Estimate: 1234.5678, Micros: 1200},
				{Estimator: "MHIST", Error: `baselines: MHIST: predicate on "c.Age" not "supported"`},
				{Estimator: "SAMPLE", Error: "tab\tand back\\slash and   separator"},
			},
		}},
		{"html-escaped query", "tb", 3, cachedEstimate{
			query: "FROM Patient p, Contact c WHERE c.Patient = p AND p.Age < 3 & p.Age > 1 <script>", estimate: 0.5, tier: "exact",
			breakdown: []estimatorResult{{Estimator: "PRM", Estimate: 0.5, Micros: 9}},
		}},
		{"exponent forms", "shop", 12, cachedEstimate{
			query: "FROM Orders o", estimate: 3.2e21, tier: "avi",
			tierReason: "brownout: inference disabled at current load",
			breakdown: []estimatorResult{
				{Estimator: "PRM", Estimate: 3.2e21, Micros: 1},
				{Estimator: "AVI", Estimate: 4.5e-7, Micros: 0},
				{Estimator: "SAMPLE", Estimate: 1e21, Micros: 2},
				{Estimator: "MHIST", Estimate: 1e-6, Micros: 2},
			},
		}},
		{"zero", "fig1", 0, cachedEstimate{
			query: "FROM People p WHERE p.Income = 0", estimate: 0, tier: "exact",
			breakdown: []estimatorResult{{Estimator: "PRM"}},
		}},
	}
	for _, tc := range cases {
		prefix := renderReply(tc.model, tc.gen, &tc.ce)
		if prefix == nil {
			t.Fatalf("%s: renderReply returned nil", tc.name)
		}
		for _, c := range []cacheInfo{{}, {Hit: true}, {Deduped: true}, {Hit: true, Deduped: true}} {
			for _, micros := range []int64{0, 7, 123456789} {
				want := httptest.NewRecorder()
				resp := tc.ce.response(tc.model, tc.gen, c)
				resp.LatencyMicros = micros
				writeJSON(want, http.StatusOK, resp)
				got := appendReplyTail(bytes.Clone(prefix), c, micros)
				if !bytes.Equal(got, want.Body.Bytes()) {
					t.Errorf("%s (cache %+v, %dµs): pre-rendered reply differs\n got: %s\nwant: %s",
						tc.name, c, micros, got, want.Body.Bytes())
				}
			}
		}
	}
}

// TestPrerenderedReplyNilOnUnencodable: an answer json cannot encode
// (a baseline's NaN) gets no rendering, leaving it to writeJSON.
func TestPrerenderedReplyNilOnUnencodable(t *testing.T) {
	ce := &cachedEstimate{query: "q", estimate: 1, tier: "exact",
		breakdown: []estimatorResult{{Estimator: "PRM", Estimate: 1}, {Estimator: "AVI", Estimate: math.NaN()}}}
	if b := renderReply("m", 1, ce); b != nil {
		t.Errorf("renderReply of a NaN breakdown = %q, want nil", b)
	}
}

func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rr
}

// splitCacheBlock cuts an estimate reply at its cache block.
func splitCacheBlock(t *testing.T, b []byte) (head, tail []byte) {
	t.Helper()
	i := bytes.LastIndex(b, []byte("\n  \"cache\": {"))
	if i < 0 {
		t.Fatalf("reply has no cache block: %s", b)
	}
	return b[:i], b[i:]
}

// TestEstimateMissAndHitDifferOnlyInCache: through the full handler, a
// miss and a later hit of the same query differ only in "cache" and
// "latency_micros".
func TestEstimateMissAndHitDifferOnlyInCache(t *testing.T) {
	h := NewServer(Config{
		Registry:        fig1Registry(t),
		DisableBrownout: true,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	const body = `{"query":"FROM People p WHERE p.Education = college AND p.HomeOwner = true"}`
	miss := serveBody(h, "/v1/estimate", body)
	hit := serveBody(h, "/v1/estimate", body)
	if miss.Code != 200 || hit.Code != 200 {
		t.Fatalf("status miss=%d hit=%d: %s %s", miss.Code, hit.Code, miss.Body, hit.Body)
	}
	mh, mt := splitCacheBlock(t, miss.Body.Bytes())
	hh, ht := splitCacheBlock(t, hit.Body.Bytes())
	if !bytes.Equal(mh, hh) {
		t.Errorf("miss and hit differ before the cache block:\n%s\n---\n%s", mh, hh)
	}
	var mtail, htail struct {
		Cache         cacheInfo `json:"cache"`
		LatencyMicros int64     `json:"latency_micros"`
	}
	for _, x := range []struct {
		b []byte
		v any
	}{{mt, &mtail}, {ht, &htail}} {
		if err := json.Unmarshal(append([]byte("{"), x.b...), x.v); err != nil {
			t.Fatalf("tail %q: %v", x.b, err)
		}
	}
	if mtail.Cache.Hit || !htail.Cache.Hit {
		t.Errorf("cache.hit miss=%v hit=%v, want false then true", mtail.Cache.Hit, htail.Cache.Hit)
	}
}

// TestEstimateDeadlineAnswers503Uncached: an estimate whose inference
// outlives the request deadline answers the structured 503 — without
// Retry-After, so it counts against the error budget — within the
// deadline plus the injected delay, and leaves nothing in the cache.
func TestEstimateDeadlineAnswers503Uncached(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	const timeout, delay = 50 * time.Millisecond, 200 * time.Millisecond
	h := NewServer(Config{
		Registry:        fig1Registry(t),
		RequestTimeout:  timeout,
		DisableBrownout: true,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	const body = `{"query":"FROM People p WHERE p.Education = high-school AND p.HomeOwner = false"}`

	faults.Set("bayesnet.infer", faults.Delay(delay))
	start := time.Now()
	rr := serveBody(h, "/v1/estimate", body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", rr.Code, rr.Body)
	}
	if elapsed > timeout+delay {
		t.Errorf("503 after %v, want within %v", elapsed, timeout+delay)
	}
	if ra := rr.Header().Get("Retry-After"); ra != "" {
		t.Errorf("deadline 503 carries Retry-After %q; it must count against the error budget", ra)
	}
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil || out["error"] == nil || out["reason"] == nil {
		t.Errorf("503 body is not the structured error: %s", rr.Body)
	}

	faults.Reset()
	rr = serveBody(h, "/v1/estimate", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("after disarming = %d, want 200; body: %s", rr.Code, rr.Body)
	}
	if !bytes.Contains(rr.Body.Bytes(), []byte(`"hit": false`)) {
		t.Errorf("timed-out estimate was cached: %s", rr.Body)
	}
}

// TestIngestDeadlineReportsRealOutcome: an ingest whose WAL fsync outlives
// the request deadline answers what actually happened — 200 when the row
// is acknowledged, 503 only when it is not — never a timeout for a row
// the log already holds.
func TestIngestDeadlineReportsRealOutcome(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	reg, m := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: -1})
	h := NewServer(Config{
		Registry:       reg,
		RequestTimeout: 50 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Logf:           func(string, ...any) {},
	}).Handler()
	ing := m.ingestor()
	_, seqBefore, _ := ing.Pending()

	faults.Set("store.wal.fsync", faults.Delay(200*time.Millisecond))
	rr := serveBody(h, "/v1/ingest",
		`{"row":{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}}}`)
	// Pending takes the ingestor's lock, so it waits out an append still
	// in flight behind the reply.
	_, seqAfter, _ := ing.Pending()
	counted := seqAfter == seqBefore+1
	switch {
	case rr.Code == http.StatusOK && !counted:
		t.Errorf("ingest answered 200 but the row is not in the log (seq %d -> %d)", seqBefore, seqAfter)
	case rr.Code == http.StatusServiceUnavailable && counted:
		t.Errorf("ingest answered 503 but the row was acknowledged (seq %d -> %d): %s", seqBefore, seqAfter, rr.Body)
	case rr.Code != http.StatusOK && rr.Code != http.StatusServiceUnavailable:
		t.Errorf("ingest status = %d: %s", rr.Code, rr.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Errorf("non-JSON ingest reply: %s", rr.Body)
	}
	if rr.Code == http.StatusOK && out["wal_seq"] != float64(seqAfter) {
		t.Errorf("reply wal_seq = %v, log at %d", out["wal_seq"], seqAfter)
	}
}
