package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/obs"
)

// SLO objective indices into the server's burn-rate engine. The
// objectives are fixed; their thresholds and targets come from Config.
const (
	sloLatency = iota
	sloErrors
	sloQError
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
				Target:      cfg.SLOErrorTarget,
				Description: "requests do not fail with a 5xx",
			},
			{
				Name:        "qerror",
				Target:      cfg.SLOQErrorTarget,
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

// traceIDKey carries the request's journal id through the context.
type traceIDKey struct{}

// traceIDFromCtx returns the request's journal id (0 when the request
// did not pass through the logging middleware, e.g. direct handler calls
// in tests).
func traceIDFromCtx(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceIDKey{}).(uint64)
	return id
}

// estimateDraft accumulates what the journal wants to know about one
// /v1/estimate request. It lives on the handler's stack and is folded
// into an Event only if sampling keeps the request, so an unsampled
// request costs no journal allocations at all.
type estimateDraft struct {
	status     int
	model      string
	generation int64
	query      string
	tier       string
	cache      string
	errMsg     string
}

// degraded reports whether the answer came from a fallback tier.
func (d *estimateDraft) degraded() bool {
	return d.tier != "" && d.tier != "exact"
}

// finishEstimate closes out one estimate request: it observes the
// request latency (with an exemplar when the journal keeps the request)
// and records the wide event. Runs for every outcome, success or
// failure, via the handler's deferred call.
func (s *Server) finishEstimate(ctx context.Context, jd *estimateDraft, started time.Time, tr *obs.Tracer) {
	d := time.Since(started)
	if jd.status == 0 {
		// The handler returned without writing — only possible on a panic
		// unwinding past us; count it as a 500 for the journal.
		jd.status = http.StatusInternalServerError
	}
	reason, keep := s.journal.Sample(jd.status, jd.degraded(), d)
	id := traceIDFromCtx(ctx)
	if jd.status == http.StatusOK {
		// Request volume and latency count successes only, as they always
		// have; errors are tracked by their own counter.
		if keep && id != 0 {
			s.metrics.ObserveRequestExemplar(d, obs.TraceID(id))
		} else {
			s.metrics.ObserveRequest(d)
		}
	}
	if !keep {
		return
	}
	ev := &obs.Event{
		ID:         id,
		TraceID:    obs.TraceID(id),
		Time:       started,
		Kind:       "estimate",
		Model:      jd.model,
		Generation: jd.generation,
		Query:      jd.query,
		Status:     jd.status,
		Tier:       jd.tier,
		Cache:      jd.cache,
		Error:      jd.errMsg,
		Micros:     d.Microseconds(),
		Stages:     stageTimings(tr),
		Reason:     reason,
	}
	s.journal.Record(ev)
}

// stageTimings flattens a finished request trace into the journal's
// per-stage timing list (top-level stages only; nested inference spans
// stay in ?trace=1).
func stageTimings(tr *obs.Tracer) []obs.Stage {
	dump := tr.Root().Dump()
	if dump == nil || len(dump.Children) == 0 {
		return nil
	}
	out := make([]obs.Stage, 0, len(dump.Children))
	for _, c := range dump.Children {
		out = append(out, obs.Stage{Name: c.Name, Micros: c.DurationMicros})
	}
	return out
}

// journalEvent records a non-estimate wide event (batch, ingest) when
// sampling keeps it. fill adds the kind-specific fields.
func (s *Server) journalEvent(ctx context.Context, kind string, status int, degraded bool, started time.Time, fill func(*obs.Event)) {
	d := time.Since(started)
	reason, keep := s.journal.Sample(status, degraded, d)
	if !keep {
		return
	}
	id := traceIDFromCtx(ctx)
	ev := &obs.Event{
		ID:      id,
		TraceID: obs.TraceID(id),
		Time:    started,
		Kind:    kind,
		Status:  status,
		Micros:  d.Microseconds(),
		Reason:  reason,
	}
	if fill != nil {
		fill(ev)
	}
	s.journal.Record(ev)
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
