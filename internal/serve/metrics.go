package serve

import (
	"math"
	"sync/atomic"
	"time"

	"prmsel/internal/obs"
)

// latencyBoundsMicros are the upper bounds (µs) of the latency histogram
// buckets; the implicit last bucket is +Inf. The low end is dense because
// the whole point of serving a learned model is microsecond-scale
// estimates (paper §5.3).
var latencyBoundsMicros = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000}

// latencyBoundsSeconds are the same bounds in the base unit the
// Prometheus histograms use.
var latencyBoundsSeconds = func() []float64 {
	out := make([]float64, len(latencyBoundsMicros))
	for i, us := range latencyBoundsMicros {
		out[i] = float64(us) / 1e6
	}
	return out
}()

// Metrics tracks the service's runtime counters: request and error
// volume, QPS, latency histograms, cache effectiveness, singleflight
// deduplication, rebuilds, durability, the streaming write path, and the
// estimation error observed on requests checked against the exact
// executor. Every signal is a typed instrument on an obs.Registry, so
// the Prometheus text at GET /metrics and the in-process Snapshot read
// the same numbers and cannot drift apart. All methods are safe for
// concurrent use.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.Counter
	errors   *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	deduped     *obs.Counter

	rebuilds        *obs.Counter
	rebuildFailures *obs.Counter
	rebuildRetries  *obs.Counter

	// Degradation-chain tier counters: which inference tier answered each
	// primary estimate. tierApprox+tierAVI is the degraded volume.
	tierExact  *obs.Counter
	tierApprox *obs.Counter
	tierAVI    *obs.Counter

	nonFinite         *obs.Counter
	admissionRejected *obs.Counter
	admissionTimeout  *obs.Counter

	storeSaves        *obs.Counter
	storeSaveFailures *obs.Counter
	feedback          *obs.Counter
	driftEvents       *obs.Counter

	batchRequests    *obs.Counter
	batchItems       *obs.Counter
	batchItemsFailed *obs.Counter

	rowsIngested   *obs.Counter
	walBytes       *obs.Counter
	ingestRejected *obs.Counter
	refits         *obs.Counter
	refitFailures  *obs.Counter

	// Request latency, with per-bucket exemplars linking into the request
	// journal on sampled requests.
	latency *obs.Histogram

	// Per-stage latency histograms over the estimate pipeline, keyed by
	// span name (see stageNames). The map is fixed at construction; the
	// histograms themselves are lock-striped atomics.
	stages map[string]*obs.Histogram

	// Estimation error vs. the exact executor, on sampled requests.
	// Recording is lock-free so an error burst never contends with the
	// request path: samples land in a fixed ring of atomic float bits
	// (one store per observation), the all-time max is a CAS-max, and
	// the geometric mean is computed at read time over the ring's window
	// of the most recent qerrWindow samples.
	errSamples atomic.Int64
	qerrIdx    atomic.Uint64
	qerrRing   [qerrWindow]atomic.Uint64 // math.Float64bits(q); 0 = empty
	qerrMax    atomic.Uint64             // math.Float64bits of the all-time max
}

// qerrWindow is the q-error sample ring size: the geometric mean is taken
// over the most recent qerrWindow exact-checked requests. Power of two so
// the ring index is a mask.
const qerrWindow = 1024

// stageNames are the estimate-pipeline stages with their own latency
// histograms: query parsing, the cache lookup (including singleflight
// waits), the shape-cache/closure build, variable elimination, the exact
// executor on sampled requests, and incremental refits. They match the
// span names the request trace produces, so ObserveStage can be fed by
// walking a finished trace.
var stageNames = []string{"parse", "cache", "closure", "infer", "exact", "refit"}

// NewMetrics returns zeroed metrics anchored at now, on a fresh registry.
func NewMetrics() *Metrics {
	return NewMetricsOn(obs.NewRegistry())
}

// NewMetricsOn builds the instrument set on reg. Registration is
// idempotent, so any number of Metrics may share one registry (they then
// share series too).
func NewMetricsOn(reg *obs.Registry) *Metrics {
	cache := reg.CounterVec("prm_cache_lookups_total",
		"Inference-cache lookups by outcome (dedup waited on another caller's in-flight inference).",
		"outcome")
	tier := reg.CounterVec("prm_tier_estimates_total",
		"Primary estimates by the degradation-chain tier that answered.", "tier")
	adm := reg.CounterVec("prm_admission_refused_total",
		"Requests refused by admission control (queue_full maps to 429, timeout to 503).", "reason")
	saves := reg.CounterVec("prm_store_saves_total",
		"Snapshot persists to the durable model store by outcome.", "outcome")

	m := &Metrics{
		start: time.Now(),
		reg:   reg,

		requests: reg.Counter("prm_estimate_requests_total", "Completed /v1/estimate requests."),
		errors:   reg.Counter("prm_estimate_errors_total", "Failed requests (5xx, estimator failures, parse failures)."),

		cacheHits:   cache.With("hit"),
		cacheMisses: cache.With("miss"),
		deduped:     cache.With("dedup"),

		rebuilds:        reg.Counter("prm_rebuilds_total", "Completed model rebuilds."),
		rebuildFailures: reg.Counter("prm_rebuild_failures_total", "Failed rebuild attempts."),
		rebuildRetries:  reg.Counter("prm_rebuild_retries_total", "Rebuild retries scheduled after failures."),

		tierExact:  tier.With("exact"),
		tierApprox: tier.With("approx"),
		tierAVI:    tier.With("avi"),

		nonFinite:         reg.Counter("prm_nonfinite_rejected_total", "Estimates rejected for being NaN or infinite."),
		admissionRejected: adm.With("queue_full"),
		admissionTimeout:  adm.With("timeout"),

		storeSaves:        saves.With("ok"),
		storeSaveFailures: saves.With("error"),
		feedback:          reg.Counter("prm_feedback_total", "Ground-truth reports received at /v1/feedback."),
		driftEvents:       reg.Counter("prm_drift_events_total", "Accuracy-watchdog trips (models flipping to drifted)."),

		batchRequests:    reg.Counter("prm_batch_requests_total", "Completed /v1/estimate/batch requests."),
		batchItems:       reg.Counter("prm_batch_items_total", "Queries carried by batch requests."),
		batchItemsFailed: reg.Counter("prm_batch_item_failures_total", "Batch items that failed in place."),

		rowsIngested:   reg.Counter("prm_ingest_rows_total", "Rows acknowledged by the streaming write path."),
		walBytes:       reg.Counter("prm_ingest_wal_bytes_total", "Bytes appended to write-ahead logs for acknowledged rows."),
		ingestRejected: reg.Counter("prm_ingest_rejected_total", "Refused /v1/ingest requests (validation, backlog, broken WAL)."),
		refits:         reg.Counter("prm_refits_total", "Completed incremental refits."),
		refitFailures:  reg.Counter("prm_refit_failures_total", "Failed incremental refit attempts."),

		latency: reg.Histogram("prm_request_latency_seconds",
			"End-to-end /v1/estimate latency.", latencyBoundsSeconds),
		stages: make(map[string]*obs.Histogram, len(stageNames)),
	}
	stageVec := reg.HistogramVec("prm_stage_latency_seconds",
		"Estimate-pipeline stage latency by span name.", latencyBoundsSeconds, "stage")
	for _, name := range stageNames {
		m.stages[name] = stageVec.With(name)
	}

	reg.GaugeFunc("prm_uptime_seconds", "Seconds since this metrics instance was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("prm_qerror_geomean", "Geometric-mean q-error over the most recent exact-checked requests (1024-sample ring).",
		func() float64 { g, _, _ := m.qerrStats(); return g })
	reg.GaugeFunc("prm_qerror_max", "Maximum q-error over exact-checked requests.",
		func() float64 { _, mx, _ := m.qerrStats(); return mx })
	reg.GaugeFunc("prm_qerror_samples", "Requests checked against the exact executor.",
		func() float64 { _, _, n := m.qerrStats(); return float64(n) })
	return m
}

// Registry exposes the instrument registry — the /metrics handler
// renders it, and the server hangs scrape-time gauges off it.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveStage records one stage latency. Unknown stage names are ignored,
// so callers may feed every span of a trace without filtering.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.Observe(d.Seconds())
	}
}

// ObserveRequest records one estimate request and its latency.
func (m *Metrics) ObserveRequest(d time.Duration) {
	m.requests.Inc()
	m.latency.Observe(d.Seconds())
}

// ObserveRequestExemplar records one estimate request whose journal
// entry survives sampling: the latency bucket gets an exemplar carrying
// the entry's trace id, so a scrape can walk from a slow bucket straight
// to the wide event behind it.
func (m *Metrics) ObserveRequestExemplar(d time.Duration, traceID string) {
	m.requests.Inc()
	m.latency.ObserveExemplar(d.Seconds(), traceID, time.Now().UnixNano())
}

// ObserveError records one failed request.
func (m *Metrics) ObserveError() { m.errors.Inc() }

// ObserveCache records one cache outcome. A deduped lookup is one that
// waited on another caller's in-flight inference instead of running its
// own.
func (m *Metrics) ObserveCache(hit, deduped bool) {
	switch {
	case hit:
		m.cacheHits.Inc()
	case deduped:
		m.deduped.Inc()
	default:
		m.cacheMisses.Inc()
	}
}

// ObserveRebuild records one completed model rebuild.
func (m *Metrics) ObserveRebuild() { m.rebuilds.Inc() }

// ObserveTier records which degradation tier answered a primary estimate.
// Unknown tiers count as degraded-to-AVI (the most conservative bucket).
func (m *Metrics) ObserveTier(tier string) {
	switch tier {
	case "exact":
		m.tierExact.Inc()
	case "approx":
		m.tierApprox.Inc()
	default:
		m.tierAVI.Inc()
	}
}

// ObserveNonFinite records one estimate rejected for being NaN or ±Inf
// before it could poison the cache.
func (m *Metrics) ObserveNonFinite() { m.nonFinite.Inc() }

// ObserveAdmission records one request refused by admission control;
// timedOut distinguishes a queue-deadline 503 from a queue-full 429.
func (m *Metrics) ObserveAdmission(timedOut bool) {
	if timedOut {
		m.admissionTimeout.Inc()
	} else {
		m.admissionRejected.Inc()
	}
}

// ObserveRebuildFailure records one failed rebuild attempt; willRetry
// notes whether the retry loop scheduled another attempt.
func (m *Metrics) ObserveRebuildFailure(willRetry bool) {
	m.rebuildFailures.Inc()
	if willRetry {
		m.rebuildRetries.Inc()
	}
}

// ObserveStoreSave records one snapshot persist to the durable model
// store; a non-nil err counts it as a failure instead.
func (m *Metrics) ObserveStoreSave(err error) {
	if err != nil {
		m.storeSaveFailures.Inc()
		return
	}
	m.storeSaves.Inc()
}

// ObserveBatch records one /v1/estimate/batch request: how many items it
// carried and how many of them failed in place.
func (m *Metrics) ObserveBatch(items, failed int) {
	m.batchRequests.Inc()
	m.batchItems.Add(int64(items))
	m.batchItemsFailed.Add(int64(failed))
}

// ObserveIngest records one acknowledged ingest batch: rows folded into
// the staging database and the bytes their WAL record cost.
func (m *Metrics) ObserveIngest(rows, walBytes int) {
	m.rowsIngested.Add(int64(rows))
	m.walBytes.Add(int64(walBytes))
}

// ObserveIngestReject records one refused /v1/ingest request (validation,
// backlog, or a broken WAL).
func (m *Metrics) ObserveIngestReject() { m.ingestRejected.Inc() }

// ObserveRefit records one incremental refit attempt and its latency; a
// non-nil err counts it as a failure (the rows stay pending).
func (m *Metrics) ObserveRefit(d time.Duration, err error) {
	if err != nil {
		m.refitFailures.Inc()
		return
	}
	m.refits.Inc()
	m.ObserveStage("refit", d)
}

// ObserveFeedback records one /v1/feedback ground-truth report.
func (m *Metrics) ObserveFeedback() { m.feedback.Inc() }

// ObserveDrift records one accuracy-watchdog trip (a model flipping to
// drifted).
func (m *Metrics) ObserveDrift() { m.driftEvents.Inc() }

// ObserveQError records the q-error (max(est/truth, truth/est), with both
// sides floored at 1 row to stay finite) of one request that was checked
// against the exact executor. Lock-free: one ring store, one counter add,
// and a CAS-max that only retries while the sample is a new record.
func (m *Metrics) ObserveQError(estimate float64, truth int64) {
	e := math.Max(estimate, 1)
	tr := math.Max(float64(truth), 1)
	q := e / tr
	if q < 1 {
		q = tr / e
	}
	i := m.qerrIdx.Add(1) - 1
	m.qerrRing[i&(qerrWindow-1)].Store(math.Float64bits(q))
	m.errSamples.Add(1)
	// Non-negative float bits order like the floats, so a uint64 CAS-max
	// is a float max (q >= 1 always).
	bits := math.Float64bits(q)
	for {
		cur := m.qerrMax.Load()
		if bits <= cur || m.qerrMax.CompareAndSwap(cur, bits) {
			break
		}
	}
}

// qerrStats returns (geomean, max, samples): the geometric mean over the
// ring's window of recent samples, the all-time max, and the all-time
// sample count. Reads race benignly with concurrent observations — each
// ring cell is atomic, so a torn window can at worst mix samples from
// adjacent generations.
func (m *Metrics) qerrStats() (float64, float64, int64) {
	n := m.errSamples.Load()
	if n == 0 {
		return 0, 0, 0
	}
	window := min(n, qerrWindow)
	var logSum float64
	var have int64
	for i := int64(0); i < window; i++ {
		bits := m.qerrRing[i].Load()
		if bits == 0 {
			continue
		}
		logSum += math.Log(math.Float64frombits(bits))
		have++
	}
	geo := 0.0
	if have > 0 {
		geo = math.Exp(logSum / float64(have))
	}
	return geo, math.Float64frombits(m.qerrMax.Load()), n
}

// histMap renders a histogram snapshot as the legacy per-bucket map keyed
// by the bucket's upper bound in microseconds.
func histMap(snap obs.HistSnapshot) map[string]int64 {
	out := make(map[string]int64, len(latencyBoundsMicros)+1)
	for i, b := range latencyBoundsMicros {
		out[fmt6(b)] = snap.Buckets[i]
	}
	out["+Inf"] = snap.Buckets[len(latencyBoundsMicros)]
	return out
}

// Snapshot renders every counter as a JSON-friendly map for in-process
// readers. It reads the same instruments /metrics scrapes.
func (m *Metrics) Snapshot() map[string]any {
	uptime := time.Since(m.start).Seconds()
	requests := m.requests.Value()
	hits := m.cacheHits.Value()
	misses := m.cacheMisses.Value()
	deduped := m.deduped.Value()
	lat := m.latency.Snapshot()

	out := map[string]any{
		"uptime_seconds":     uptime,
		"requests":           requests,
		"errors":             m.errors.Value(),
		"qps":                float64(requests) / math.Max(uptime, 1e-9),
		"cache_hits":         hits,
		"cache_misses":       misses,
		"deduped":            deduped,
		"cache_hit_rate":     rate(hits, hits+misses+deduped),
		"rebuilds":           m.rebuilds.Value(),
		"rebuild_failures":   m.rebuildFailures.Value(),
		"rebuild_retries":    m.rebuildRetries.Value(),
		"nonfinite_rejected": m.nonFinite.Value(),
		"tiers": map[string]int64{
			"exact":  m.tierExact.Value(),
			"approx": m.tierApprox.Value(),
			"avi":    m.tierAVI.Value(),
		},
		"degraded": m.tierApprox.Value() + m.tierAVI.Value(),
		"store": map[string]int64{
			"saves":         m.storeSaves.Value(),
			"save_failures": m.storeSaveFailures.Value(),
		},
		"feedback":     m.feedback.Value(),
		"drift_events": m.driftEvents.Value(),
		"ingest": map[string]int64{
			"rows_ingested":  m.rowsIngested.Value(),
			"wal_bytes":      m.walBytes.Value(),
			"rejected":       m.ingestRejected.Value(),
			"refit_total":    m.refits.Value(),
			"refit_failures": m.refitFailures.Value(),
		},
		"batch": map[string]int64{
			"requests":     m.batchRequests.Value(),
			"items":        m.batchItems.Value(),
			"items_failed": m.batchItemsFailed.Value(),
		},
		"admission": map[string]int64{
			"rejected_429": m.admissionRejected.Value(),
			"timeout_503":  m.admissionTimeout.Value(),
		},
		"latency_us_buckets": histMap(lat),
		"latency_us_mean":    meanMicros(lat),
		"latency_obs":        lat.Count,
	}
	stages := make(map[string]any, len(m.stages))
	for name, h := range m.stages {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		stages[name] = map[string]any{
			"obs":        snap.Count,
			"us_mean":    meanMicros(snap),
			"us_buckets": histMap(snap),
		}
	}
	if len(stages) > 0 {
		out["stages"] = stages
	}
	if geo, mx, n := m.qerrStats(); n > 0 {
		out["exact_samples"] = n
		out["qerror_geomean"] = geo
		out["qerror_max"] = mx
	}
	return out
}

// meanMicros is the histogram's mean observation in microseconds.
func meanMicros(snap obs.HistSnapshot) float64 {
	if snap.Count == 0 {
		return 0
	}
	return snap.Sum * 1e6 / float64(snap.Count)
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fmt6 renders a bucket bound without pulling in fmt for the hot path.
func fmt6(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
