package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/obs"
)

// SLO objective indices into the server's burn-rate engine. The
// objectives are fixed; their thresholds and the latency target come
// from Config.
const (
	sloLatency = iota
	sloErrors
	sloQError
)

// The error and accuracy objectives' targets: the fraction of API
// requests that must not fail with a 5xx, and the fraction of observed
// q-errors that must stay within Config.SLOQErrorMax.
const (
	sloErrorTarget  = 0.999
	sloQErrorTarget = 0.99
)

// newSLO builds the server's three-objective burn-rate engine from the
// config (which NewServer has already defaulted).
func newSLO(cfg Config) *obs.SLO {
	return obs.NewSLO(obs.SLOConfig{
		Objectives: []obs.Objective{
			{
				Name:        "latency",
				Target:      cfg.SLOLatencyTarget,
				Description: fmt.Sprintf("estimate requests complete within %v", cfg.SLOLatency),
			},
			{
				Name:        "errors",
				Target:      sloErrorTarget,
				Description: "requests do not fail with a 5xx",
			},
			{
				Name:        "qerror",
				Target:      sloQErrorTarget,
				Description: fmt.Sprintf("observed q-error at most %.4g", cfg.SLOQErrorMax),
			},
		},
		Windows: cfg.SLOWindows,
	})
}

// registerScrapeGauges hangs the scrape-time gauges off the metrics
// registry: values that live in other subsystems (cache, plan cache,
// journal) and are read, not mirrored. On a shared registry the first
// server's closures win — acceptable, since sharing a Metrics between
// servers also shares every counter.
func (s *Server) registerScrapeGauges() {
	reg := s.metrics.Registry()
	reg.GaugeFunc("prm_cache_entries", "Entries in the inference cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("prm_plan_cache_hits", "Compiled-query cache hits in the current parameter epochs of served models.",
		func() float64 { return float64(s.planCacheStats().Hits) })
	reg.GaugeFunc("prm_plan_cache_misses", "Compiled-query cache misses in the current parameter epochs of served models.",
		func() float64 { return float64(s.planCacheStats().Misses) })
	reg.GaugeFunc("prm_plan_cache_entries", "Compiled query shapes cached in the current parameter epochs of served models.",
		func() float64 { return float64(s.planCacheStats().Entries) })
	reg.GaugeFunc("prm_journal_recorded", "Wide events recorded in the request journal.",
		func() float64 { return float64(s.journal.Stats().Recorded) })
	reg.GaugeFunc("prm_journal_ids_issued", "Request ids issued (journaled or not).",
		func() float64 { return float64(s.journal.Stats().IDsIssued) })
	s.sloBurn = reg.GaugeVec("prm_slo_burn_rate",
		"Error-budget burn rate per objective and window (>=1 means over budget).",
		"objective", "window")
	s.sloBurning = reg.GaugeVec("prm_slo_burning",
		"1 when every window of the objective is over budget (the paging signal).",
		"objective")
}

// syncSLOGauges projects the burn-rate engine onto the registry's
// gauges; called by the scrape handler so /metrics is always current.
func (s *Server) syncSLOGauges() {
	if s.slo == nil || s.sloBurn == nil {
		return
	}
	for _, st := range s.slo.Status() {
		for _, wb := range st.Windows {
			s.sloBurn.With(st.Name, wb.Window.String()).Set(wb.BurnRate)
		}
		burning := 0.0
		if st.Burning {
			burning = 1
		}
		s.sloBurning.With(st.Name).Set(burning)
	}
}

// handleMetrics serves the registry as Prometheus text exposition.
// Scrapers that accept OpenMetrics get that dialect, which is where the
// histogram-bucket exemplars (journal links) are legal syntax.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncSLOGauges()
	if s.res != nil {
		s.res.syncGauges()
	}
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("format") == "openmetrics"
	if openMetrics {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
	} else {
		w.Header().Set("Content-Type", obs.ContentTypeText)
	}
	_ = s.metrics.Registry().WritePrometheus(w, openMetrics)
}

// handleDebugRequests serves the request journal: sampled wide events,
// newest first. Query parameters: n (max events), kind
// (estimate|batch|ingest), errors=1 (non-2xx only), min_micros (at
// least this slow), model.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, _ := strconv.Atoi(q.Get("n"))
	kind := q.Get("kind")
	model := q.Get("model")
	errorsOnly := q.Get("errors") == "1"
	minMicros, _ := strconv.ParseInt(q.Get("min_micros"), 10, 64)
	events := s.journal.Events(n, func(ev *obs.Event) bool {
		if kind != "" && ev.Kind != kind {
			return false
		}
		if model != "" && ev.Model != model {
			return false
		}
		if errorsOnly && ev.Status < 400 {
			return false
		}
		if ev.Micros < minMicros {
			return false
		}
		return true
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"journal": s.journal.Stats(),
		"events":  events,
	})
}

// Journal kinds: the routes whose requests become wide events.
const (
	kindEstimate = "estimate"
	kindBatch    = "batch"
	kindIngest   = "ingest"
)

// traceHeader carries the request's trace id, in canonical form so
// setting it skips re-canonicalization.
const traceHeader = "X-Prm-Trace"

// reqRecord is the one record of a request. The logging middleware wraps
// the response writer in it, handlers fill it in, and when the handler
// returns one sampling decision turns it into the journal event, the
// latency exemplar and the access log line — or into none of them.
type reqRecord struct {
	http.ResponseWriter
	id      uint64
	traceID string
	start   time.Time
	status  int
	bytes   int

	kind       string // a kind* constant; "" for routes the journal does not keep
	model      string
	generation int64
	query      string
	tier       string
	cache      string
	errMsg     string
	items      int                      // batch queries or ingest rows
	degraded   bool                     // a fallback tier answered, or batch items failed
	stages     [numStages]time.Duration // parse, cache and exact; the rest stay zero
}

func (rec *reqRecord) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *reqRecord) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes += n
	return n, err
}

// recordOf returns the request's record: w itself under the logging
// middleware, or a detached record nothing reads when a handler is
// called directly.
func recordOf(w http.ResponseWriter) *reqRecord {
	if rec, ok := w.(*reqRecord); ok {
		return rec
	}
	return &reqRecord{ResponseWriter: w, start: time.Now()}
}

// finish closes out a request once its handler returned: the SLO
// objectives, the stage histograms, the request latency, and — for the
// journal's kinds — the one sampling decision (errors, degraded answers,
// slow requests, 1-in-N successes) that keeps the journal event, the
// latency exemplar and the access line together. Requests of other
// routes, and every request when the journal is disabled, are never
// sampled; their errors are still logged.
func (s *Server) finish(rec *reqRecord, r *http.Request) {
	d := time.Since(rec.start)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		// Protective rejections (shed, breaker-open, admission pushback)
		// carry a Retry-After header. They are the server defending its
		// SLO, not violating it, so they stay out of the error budget —
		// counting them would hold the burn rate up through the very
		// shedding meant to bring it down, and the brownout would never
		// release (positive feedback).
		protective := rec.Header().Get("Retry-After") != ""
		if !protective {
			s.slo.Observe(sloErrors, status < 500)
			if strings.HasPrefix(r.URL.Path, "/v1/estimate") {
				s.slo.Observe(sloLatency, status < 500 && d <= s.cfg.SLOLatency)
			}
		}
	}
	for i, sd := range rec.stages {
		if sd > 0 { // a stage that ran took time
			s.metrics.ObserveStage(i, sd)
		}
	}
	var reason string
	var keep bool
	if rec.kind != "" {
		reason, keep = s.journal.Sample(status, rec.degraded, d)
	}
	if status == http.StatusOK && (rec.kind == kindEstimate || rec.kind == kindBatch) {
		// Request volume and latency count successes only; errors are
		// tracked by their own counter.
		if keep {
			s.metrics.ObserveRequestExemplar(d, rec.traceID)
		} else {
			s.metrics.ObserveRequest(d)
		}
	}
	if keep {
		s.journal.Record(rec.event(status, d, reason))
	}
	if keep || status >= 400 {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("trace_id", rec.traceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int("bytes", rec.bytes),
			slog.Int64("micros", d.Microseconds()),
		)
	}
}

// event renders the record as the journal's wide event.
func (rec *reqRecord) event(status int, d time.Duration, reason string) *obs.Event {
	ev := &obs.Event{
		ID:         rec.id,
		TraceID:    rec.traceID,
		Time:       rec.start,
		Kind:       rec.kind,
		Model:      rec.model,
		Generation: rec.generation,
		Query:      rec.query,
		Status:     status,
		Tier:       rec.tier,
		Cache:      rec.cache,
		Error:      rec.errMsg,
		Items:      rec.items,
		Micros:     d.Microseconds(),
		Reason:     reason,
	}
	for i, sd := range rec.stages {
		if sd > 0 {
			ev.Stages = append(ev.Stages, obs.Stage{Name: stageNames[i], Micros: sd.Microseconds()})
		}
	}
	return ev
}

// observeInference feeds the closure and infer spans under sp — the
// inference a cache miss ran — into their stage histograms. The
// request's own stages come from its record.
func (s *Server) observeInference(sp *obs.Span) {
	sp.Visit(func(name string, d time.Duration) {
		switch name {
		case stageNames[stageClosure]:
			s.metrics.ObserveStage(stageClosure, d)
		case stageNames[stageInfer]:
			s.metrics.ObserveStage(stageInfer, d)
		}
	})
}

// planCacheStats aggregates plan-cache counters across every served
// model — the number behind both the /healthz detail and the
// prm_plan_cache_* gauges.
func (s *Server) planCacheStats() core.PlanCacheStats {
	var agg core.PlanCacheStats
	for _, name := range s.reg.Names() {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		if ps, ok := m.Current().Primary().(planStatser); ok {
			st := ps.PlanStats()
			agg.Hits += st.Hits
			agg.Misses += st.Misses
			agg.Entries += st.Entries
		}
	}
	return agg
}
