package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ---- a strict Prometheus text-format parser for round-trip testing ----

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name    string
	typ     string
	samples []promSample
}

// parsePromText parses the classic exposition format strictly: families
// must be declared exactly once, every sample must belong to the most
// recently declared family, and label values must unescape cleanly.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	var current *promFamily
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if _, dup := families[name]; dup {
				t.Errorf("line %d: duplicate family %q", ln+1, name)
			}
			current = &promFamily{name: name}
			families[name] = current
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || current == nil || current.name != name {
				t.Fatalf("line %d: TYPE for %q not adjacent to its HELP", ln+1, name)
			}
			if current.typ != "" {
				t.Errorf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			current.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q in classic format", ln+1, line)
			continue
		}
		s := parsePromSample(t, ln+1, line)
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := families[strings.TrimSuffix(s.name, suffix)]; ok && fam.typ == "histogram" {
				base = strings.TrimSuffix(s.name, suffix)
				break
			}
		}
		fam, ok := families[base]
		if !ok {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, s.name)
		}
		if current == nil || fam != current {
			t.Errorf("line %d: sample %q not grouped under its family declaration", ln+1, s.name)
		}
		fam.samples = append(fam.samples, s)
	}
	return families
}

// parsePromSample parses `name{k="v",...} value`, unescaping label values.
func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: malformed sample %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed labels in %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: invalid escape \\%c in %q", ln, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value in %q: %v", ln, line, err)
	}
	s.value = v
	return s
}

// TestMetricsEndpointRoundTrip drives real traffic through the handler,
// scrapes GET /metrics, and re-parses the exposition: no duplicate
// families, samples grouped under their declaration, histogram buckets
// cumulative and monotone with +Inf equal to the count.
func TestMetricsEndpointRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high","exact":true}`)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high"}`) // cache hit
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE`)                   // parse error

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("classic scrape Content-Type = %q", ct)
	}
	text := string(body)
	if strings.Contains(text, "# EOF") {
		t.Error("classic exposition contains OpenMetrics # EOF")
	}

	families := parsePromText(t, text)
	for _, want := range []string{
		"prm_estimate_requests_total",
		"prm_cache_lookups_total",
		"prm_tier_estimates_total",
		"prm_request_latency_seconds",
		"prm_stage_latency_seconds",
		"prm_qerror_geomean",
		"prm_uptime_seconds",
		"prm_slo_burn_rate",
	} {
		if families[want] == nil {
			t.Errorf("scrape lacks family %q", want)
		}
	}
	if fam := families["prm_estimate_requests_total"]; fam != nil {
		if fam.typ != "counter" || len(fam.samples) != 1 || fam.samples[0].value < 2 {
			t.Errorf("requests counter = %+v, want >= 2 successes", fam)
		}
	}
	if fam := families["prm_cache_lookups_total"]; fam != nil {
		byOutcome := map[string]float64{}
		for _, s := range fam.samples {
			byOutcome[s.labels["outcome"]] = s.value
		}
		if byOutcome["hit"] < 1 || byOutcome["miss"] < 1 {
			t.Errorf("cache outcomes = %v, want a hit and a miss", byOutcome)
		}
	}

	// Histogram invariants for every histogram family in the scrape.
	for name, fam := range families {
		if fam.typ != "histogram" {
			continue
		}
		checkHistogramSeries(t, name, fam)
	}
}

// checkHistogramSeries asserts cumulative monotone buckets per label set,
// ascending le bounds, and +Inf == _count.
func checkHistogramSeries(t *testing.T, name string, fam *promFamily) {
	t.Helper()
	type series struct {
		les     []float64
		buckets map[float64]float64
		count   float64
	}
	bySet := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k+"="+labels[k])
			}
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	get := func(k string) *series {
		if bySet[k] == nil {
			bySet[k] = &series{buckets: map[float64]float64{}}
		}
		return bySet[k]
	}
	for _, s := range fam.samples {
		k := keyOf(s.labels)
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if s.labels["le"] == "+Inf" {
				le, err = math.Inf(1), nil
			}
			if err != nil {
				t.Fatalf("%s: bad le %q", name, s.labels["le"])
			}
			sr := get(k)
			sr.les = append(sr.les, le)
			sr.buckets[le] = s.value
		case name + "_count":
			get(k).count = s.value
		}
	}
	for k, sr := range bySet {
		if !sort.Float64sAreSorted(sr.les) {
			t.Errorf("%s{%s}: le bounds not ascending: %v", name, k, sr.les)
		}
		prev := -1.0
		for _, le := range sr.les {
			if sr.buckets[le] < prev {
				t.Errorf("%s{%s}: bucket le=%v (%v) below previous (%v): not cumulative",
					name, k, le, sr.buckets[le], prev)
			}
			prev = sr.buckets[le]
		}
		if n := len(sr.les); n == 0 || !math.IsInf(sr.les[n-1], 1) {
			t.Errorf("%s{%s}: no +Inf bucket", name, k)
		} else if sr.buckets[math.Inf(1)] != sr.count {
			t.Errorf("%s{%s}: +Inf bucket %v != count %v", name, k, sr.buckets[math.Inf(1)], sr.count)
		}
	}
}

// TestTraceJoin: one id joins the response header, the structured log
// line, the journal entry, and (on an OpenMetrics scrape) a histogram
// exemplar.
func TestTraceJoin(t *testing.T) {
	var buf lockedBuf
	srv := NewServer(Config{
		Registry:           fig1Registry(t),
		JournalSampleEvery: 1, // keep every request
		Logger:             slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"query":"FROM People p WHERE p.Education = college"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get("X-PRM-Trace")
	if len(tid) != 16 {
		t.Fatalf("X-PRM-Trace = %q, want 16 hex chars", tid)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id = %q, want no such header", got)
	}

	// Journal entry under the same id, with the request's wide fields.
	dresp, err := http.Get(ts.URL + "/debug/requests?kind=estimate")
	if err != nil {
		t.Fatal(err)
	}
	var debug struct {
		Events []struct {
			TraceID string `json:"trace_id"`
			Kind    string `json:"kind"`
			Model   string `json:"model"`
			Status  int    `json:"status"`
			Tier    string `json:"tier"`
			Cache   string `json:"cache"`
			Micros  int64  `json:"micros"`
			Reason  string `json:"sample_reason"`
			Stages  []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"events"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&debug); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	var found bool
	for _, ev := range debug.Events {
		if ev.TraceID != tid {
			continue
		}
		found = true
		if ev.Kind != "estimate" || ev.Model != "fig1" || ev.Status != 200 {
			t.Errorf("journal entry = %+v", ev)
		}
		if ev.Tier == "" || ev.Cache == "" || ev.Micros <= 0 || ev.Reason == "" {
			t.Errorf("journal entry missing wide fields: %+v", ev)
		}
		stageNames := map[string]bool{}
		for _, st := range ev.Stages {
			stageNames[st.Name] = true
		}
		if !stageNames["parse"] || !stageNames["cache"] {
			t.Errorf("journal entry stages = %+v, want parse and cache", ev.Stages)
		}
	}
	if !found {
		t.Fatalf("journal has no entry for trace %s: %+v", tid, debug.Events)
	}

	// The structured log line carries the same id.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(buf.String(), tid) {
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), tid) {
		t.Errorf("log output lacks trace id %s:\n%s", tid, buf.String())
	}

	// An OpenMetrics scrape exposes the id as a latency-bucket exemplar.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("OpenMetrics scrape Content-Type = %q", ct)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Error("OpenMetrics scrape does not end with # EOF")
	}
	if !strings.Contains(string(om), `trace_id="`) {
		t.Error("OpenMetrics scrape carries no exemplars")
	}
}

// TestDebugRequestsFilters: errors are always journaled and the
// errors=1 filter isolates them.
func TestDebugRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high"}`)
	postEstimate(t, ts.URL, `{"query":"FROM Nope n WHERE n.X = y"}`) // 400, always sampled

	resp, err := http.Get(ts.URL + "/debug/requests?errors=1")
	if err != nil {
		t.Fatal(err)
	}
	var debug struct {
		Journal struct {
			Capacity int `json:"capacity"`
			Errors   int `json:"sampled_error"`
		} `json:"journal"`
		Events []struct {
			Status int    `json:"status"`
			Error  string `json:"error"`
			Reason string `json:"sample_reason"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&debug); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if debug.Journal.Capacity == 0 || debug.Journal.Errors < 1 {
		t.Errorf("journal stats = %+v, want capacity and >= 1 error", debug.Journal)
	}
	if len(debug.Events) == 0 {
		t.Fatal("errors=1 returned no events despite a 400 request")
	}
	for _, ev := range debug.Events {
		if ev.Status < 400 {
			t.Errorf("errors=1 leaked a %d event", ev.Status)
		}
		if ev.Error == "" || ev.Reason != "error" {
			t.Errorf("error event lacks error/reason: %+v", ev)
		}
	}
}

// TestHealthzSLO: /healthz surfaces the SLO objectives with burn-rate
// windows and the journal stats.
func TestHealthzSLO(t *testing.T) {
	_, ts := newTestServer(t)
	postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high"}`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		SLO []struct {
			Name    string  `json:"name"`
			Target  float64 `json:"target"`
			Windows []struct {
				WindowSecs float64 `json:"window_secs"`
				Good       int64   `json:"good"`
			} `json:"windows"`
		} `json:"slo"`
		Journal *struct {
			Capacity int `json:"capacity"`
		} `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, o := range body.SLO {
		names[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			t.Errorf("objective %s target = %v", o.Name, o.Target)
		}
		if len(o.Windows) < 2 {
			t.Errorf("objective %s has %d windows", o.Name, len(o.Windows))
		}
	}
	for _, want := range []string{"latency", "errors", "qerror"} {
		if !names[want] {
			t.Errorf("healthz SLO lacks objective %q: %v", want, names)
		}
	}
	var good int64
	for _, w := range body.SLO[0].Windows {
		good += w.Good
	}
	if good == 0 {
		t.Error("latency objective saw no observations after a 200")
	}
	if body.Journal == nil || body.Journal.Capacity == 0 {
		t.Errorf("healthz lacks journal stats: %+v", body.Journal)
	}
}

// TestEstimateAllocsJournalIdle: when the journal samples nothing, the
// cached-hit estimate path allocates no more than with the journal
// structurally disabled — the sampling decision itself is free.
func TestEstimateAllocsJournalIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	measure := func(disable bool) float64 {
		srv := NewServer(Config{
			Registry: fig1Registry(t),
			// SampleEvery 0 and a huge slow threshold: nothing fast and
			// successful is ever kept.
			SlowThreshold:  time.Hour,
			DisableJournal: disable,
			// No controller goroutine: AllocsPerRun counts process-wide
			// mallocs, and a background tick landing inside one window
			// skews the per-run average.
			DisableBrownout: true,
			Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		const body = `{"query":"FROM People p WHERE p.Income = high"}`
		warm := httptest.NewRecorder()
		srv.handleEstimate(warm, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
		if warm.Code != 200 {
			t.Fatalf("warmup = %d: %s", warm.Code, warm.Body)
		}
		// Best of three: a real extra allocation on the path shows up in
		// every window; GC or scheduler noise only inflates some.
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			best = min(best, testing.AllocsPerRun(200, func() {
				rr := httptest.NewRecorder()
				srv.handleEstimate(rr, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
				if rr.Code != 200 {
					t.Fatalf("cached hit = %d", rr.Code)
				}
			}))
		}
		return best
	}
	with := measure(false)
	without := measure(true)
	// The race detector's instrumentation adds ±1 of per-run noise to the
	// process-wide malloc count; without it the numbers are exact.
	tolerance := 0.0
	if raceEnabled {
		tolerance = 1
	}
	if with > without+tolerance {
		t.Errorf("cached-hit estimate allocates %v with idle journal, %v without journal", with, without)
	}
	t.Logf("cached-hit allocs: journal idle %v, journal disabled %v", with, without)
}

// TestJournalSampleZeroAlloc: issuing an id and deciding not to sample
// allocates nothing at all.
func TestJournalSampleZeroAlloc(t *testing.T) {
	srv := NewServer(Config{
		Registry:      fig1Registry(t),
		SlowThreshold: time.Hour,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	allocs := testing.AllocsPerRun(1000, func() {
		_ = srv.journal.NextID()
		if _, keep := srv.journal.Sample(200, false, time.Microsecond); keep {
			t.Fatal("idle journal sampled a fast success")
		}
	})
	if allocs != 0 {
		t.Errorf("NextID+Sample allocates %v per run, want 0", allocs)
	}
}
