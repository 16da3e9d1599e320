package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prmsel/internal/bayesnet"
	"prmsel/internal/core"
	"prmsel/internal/obs"
	"prmsel/internal/query"
	"prmsel/internal/queryparse"
)

// Config tunes the HTTP server.
type Config struct {
	// Registry holds the served models; required.
	Registry *Registry
	// CacheCapacity bounds the inference cache (default 4096 entries).
	CacheCapacity int
	// CacheShards is the cache's shard count (default 16).
	CacheShards int
	// RequestTimeout bounds each request's wall time (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ExactEvery, when positive, runs every Nth estimate request through
	// the exact executor too and feeds the observed q-error into the
	// metrics (default 0: only requests that ask for exact run it).
	ExactEvery int
	// MaxCells bounds exact elimination: a query whose factor products
	// would exceed this many cells degrades to the sampling tier instead
	// of allocating. 0 means unlimited (degradation then triggers only on
	// inference failures).
	MaxCells int
	// ApproxSamples sizes the likelihood-weighting fallback tier
	// (default 4096).
	ApproxSamples int
	// MaxConcurrent caps the total admitted inference weight (see
	// queryWeight). Default 8×GOMAXPROCS; negative disables admission
	// control. Cache hits never pass through admission.
	MaxConcurrent int
	// MaxQueued bounds the admission wait queue; requests beyond it get
	// an immediate 429 (default 4×MaxConcurrent).
	MaxQueued int
	// QueueTimeout bounds how long a request may wait for an inference
	// slot before a 503 (default 1s).
	QueueTimeout time.Duration
	// MaxBatchItems bounds the number of queries in one /v1/estimate/batch
	// request (default 256); larger batches get a 413.
	MaxBatchItems int
	// BatchWorkers bounds the per-batch worker pool (default GOMAXPROCS).
	// Total inference concurrency is still governed by admission control;
	// this only caps how much of it one batch can occupy.
	BatchWorkers int
	// RebuildOnDrift makes the accuracy watchdog trigger an early
	// background rebuild the moment a model flips to drifted (see
	// DriftPolicy); off by default — drifted is then an operator signal
	// only.
	RebuildOnDrift bool
	// Metrics receives the runtime counters; one is created when nil.
	Metrics *Metrics
	// Logf logs service events (rebuild outcomes); log.Printf when nil.
	Logf func(format string, args ...any)
	// Logger receives one structured record per request (trace id, method,
	// path, status, latency); slog.Default() when nil.
	Logger *slog.Logger
	// JournalSize bounds the request journal ring (default 1024 events,
	// rounded up to a power of two).
	JournalSize int
	// JournalSampleEvery keeps 1 in N ordinary fast successes in the
	// journal (default 0: none; errors, degraded answers, and slow
	// requests are always kept regardless).
	JournalSampleEvery int
	// SlowThreshold marks a request slow for journal sampling
	// (default 25ms).
	SlowThreshold time.Duration
	// DisableJournal turns the request journal off entirely; trace ids
	// still flow from the package-level sequence.
	DisableJournal bool
	// SLOLatency is the latency objective's threshold (default 100ms).
	SLOLatency time.Duration
	// SLOLatencyTarget is the fraction of estimate requests that must
	// finish within SLOLatency (default 0.999).
	SLOLatencyTarget float64
	// SLOErrorTarget is the fraction of API requests that must not fail
	// with a 5xx (default 0.999).
	SLOErrorTarget float64
	// SLOQErrorMax is the accuracy objective's threshold: an observed
	// q-error above it counts against the budget (default 16).
	SLOQErrorMax float64
	// SLOQErrorTarget is the fraction of observed q-errors that must stay
	// within SLOQErrorMax (default 0.99).
	SLOQErrorTarget float64
	// SLOWindows are the burn-rate windows, shortest first
	// (default 1m, 5m, 30m).
	SLOWindows []time.Duration
	// DisableBrownout turns the adaptive self-protection loop off: no
	// controller goroutine, no circuit breakers, no shed state.
	DisableBrownout bool
	// BrownoutTick is the brownout controller's sampling period
	// (default 1s).
	BrownoutTick time.Duration
	// MemSoftLimit, when positive, is the heap size in bytes that feeds
	// the brownout controller's memory-pressure signal (0 = signal off).
	MemSoftLimit int64
}

// GenHeader is the response header carrying the serving model
// generation. The cluster gate pins rolling rollouts on it and
// operators use it to attribute a response to a model version during
// mixed-generation windows.
const GenHeader = "X-PRM-Gen"

// Server is the estimation service.
type Server struct {
	cfg      Config
	reg      *Registry
	cache    *Cache
	adm      *admission // nil when admission control is disabled
	metrics  *Metrics
	journal  *obs.Journal // nil when DisableJournal is set
	slo      *obs.SLO
	logf     func(format string, args ...any)
	logger   *slog.Logger
	reqSeq   atomic.Int64 // drives ExactEvery sampling
	start    time.Time
	draining atomic.Bool      // set by StartDrain; flips /readyz to 503
	res      *resilienceState // nil when DisableBrownout is set

	// Scrape-time projections of the SLO engine, filled by /metrics.
	sloBurn    *obs.GaugeVec
	sloBurning *obs.GaugeVec
}

// NewServer wires a server from the config.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("serve: Config.Registry is required")
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 4096
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = 16
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ApproxSamples == 0 {
		cfg.ApproxSamples = 4096
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 8 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 4 * cfg.MaxConcurrent
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.SLOLatency == 0 {
		cfg.SLOLatency = 100 * time.Millisecond
	}
	if cfg.SLOLatencyTarget == 0 {
		cfg.SLOLatencyTarget = 0.999
	}
	if cfg.SLOErrorTarget == 0 {
		cfg.SLOErrorTarget = 0.999
	}
	if cfg.SLOQErrorMax == 0 {
		cfg.SLOQErrorMax = 16
	}
	if cfg.SLOQErrorTarget == 0 {
		cfg.SLOQErrorTarget = 0.99
	}
	var adm *admission
	if cfg.MaxConcurrent > 0 {
		adm = newAdmission(int64(cfg.MaxConcurrent), cfg.MaxQueued, cfg.QueueTimeout)
	}
	// Persist outcomes (snapshot saves to the durable store) happen in
	// registry rebuild goroutines; route them into this server's metrics.
	cfg.Registry.setOnPersist(func(err error) { cfg.Metrics.ObserveStoreSave(err) })
	// The write path's row counters and refit latencies likewise come out
	// of registry-owned goroutines.
	cfg.Registry.setOnIngest(cfg.Metrics.ObserveIngest)
	cfg.Registry.setOnRefit(cfg.Metrics.ObserveRefit)
	var journal *obs.Journal
	if !cfg.DisableJournal {
		journal = obs.NewJournal(obs.JournalConfig{
			Size:          cfg.JournalSize,
			SlowThreshold: cfg.SlowThreshold,
			SampleEvery:   cfg.JournalSampleEvery,
		})
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		cache:   NewCache(cfg.CacheCapacity, cfg.CacheShards),
		adm:     adm,
		metrics: cfg.Metrics,
		journal: journal,
		slo:     newSLO(cfg),
		logf:    cfg.Logf,
		logger:  cfg.Logger,
		start:   time.Now(),
	}
	s.registerScrapeGauges()
	if !cfg.DisableBrownout {
		s.res = newResilience(s)
		s.res.start()
	}
	return s
}

// Metrics returns the server's metrics (for publication or inspection).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the server's background brownout controller. It does not
// touch the registry — Registry.Close owns model shutdown. Safe on a
// server built with DisableBrownout, and safe to call more than once.
func (s *Server) Close() {
	if s.res != nil {
		s.res.ctrl.Stop()
	}
}

// StartDrain flips the server to not-ready: /readyz answers 503
// "draining" from this point on while every other endpoint keeps
// serving, so upstreams (the cluster gate, a load balancer) stop
// routing new work here before the listener actually closes. Requests
// already in flight are unaffected. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler, wrapped in structured
// request logging. The versioned JSON API, health, and debug vars run
// under the per-request deadline (Config.RequestTimeout); readiness,
// metrics, the request journal, and the pprof endpoints sit outside it (a
// readiness probe must answer even when the request path is saturated, and
// a 30-second CPU profile must not be killed by the deadline).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(pattern string, h http.HandlerFunc) { mux.Handle(pattern, s.withDeadline(h)) }
	api("POST /v1/estimate", s.handleEstimate)
	api("POST /v1/estimate/batch", s.handleEstimateBatch)
	api("POST /v1/ingest", s.handleIngest)
	api("POST /v1/feedback", s.handleFeedback)
	api("GET /v1/models", s.handleModels)
	api("POST /v1/models/{name}/rebuild", s.handleRebuild)
	api("GET /v1/models/{name}/snapshot", s.handleSnapshotGet)
	api("POST /v1/models/{name}/load", s.handleSnapshotLoad)
	api("GET /healthz", s.handleHealthz)
	api("GET /debug/vars", expvar.Handler().ServeHTTP)

	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s.logging(mux)
}

// withDeadline runs h in the request's own goroutine under a context that
// expires after Config.RequestTimeout. Handlers turn the expired context
// into their own structured answer: an estimate stops inference between
// elimination steps and answers 503, and a write that finished anyway
// reports what it did rather than a timeout.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// logging assigns every request a trace id — the journal's event id,
// echoed in the X-Trace-Id and X-PRM-Trace response headers and stamped
// on the structured log record, so a log line, a journal entry, and a
// histogram exemplar join on one id. It logs every request's real status
// and feeds the SLO engine's availability and latency objectives.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := s.journal.NextID()
		tid := obs.TraceID(id)
		w.Header().Set("X-Trace-Id", tid)
		w.Header().Set("X-PRM-Trace", tid)
		r = r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		d := time.Since(started)
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			// Protective rejections (shed, breaker-open, admission pushback)
			// carry a Retry-After header. They are the server defending its
			// SLO, not violating it, so they stay out of the error budget —
			// counting them would hold the burn rate up through the very
			// shedding meant to bring it down, and the brownout would never
			// release (positive feedback).
			protective := sw.Header().Get("Retry-After") != ""
			if !protective {
				s.slo.Observe(sloErrors, status < 500)
				if strings.HasPrefix(r.URL.Path, "/v1/estimate") {
					s.slo.Observe(sloLatency, status < 500 && d <= s.cfg.SLOLatency)
				}
			}
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("trace_id", tid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int("bytes", sw.bytes),
			slog.Int64("micros", d.Microseconds()),
		)
	})
}

// statusWriter captures the status code and body size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// estimateRequest is the POST /v1/estimate body.
type estimateRequest struct {
	// Model names the registry entry; optional when exactly one model is
	// registered.
	Model string `json:"model,omitempty"`
	// Query is the queryparse-dialect query text.
	Query string `json:"query"`
	// Estimators filters the breakdown to the named estimators (default:
	// all registered). The PRM always runs; it is the headline estimate.
	Estimators []string `json:"estimators,omitempty"`
	// Exact also runs the exact executor and reports truth + q-error.
	Exact bool `json:"exact,omitempty"`
}

// estimatorResult is one estimator's entry in the breakdown.
type estimatorResult struct {
	Estimator string  `json:"estimator"`
	Estimate  float64 `json:"estimate"`
	Micros    int64   `json:"micros"`
	Error     string  `json:"error,omitempty"`
}

type cacheInfo struct {
	Hit     bool `json:"hit"`
	Deduped bool `json:"deduped"`
}

type exactResult struct {
	Count  int64   `json:"count"`
	Micros int64   `json:"micros"`
	QError float64 `json:"qerror"`
}

// estimateResponse is the POST /v1/estimate reply. Trace and Explain are
// populated only for ?trace=1 requests. Tier reports which level of the
// degradation chain produced the headline estimate ("exact" normally;
// "approx" or "avi" when the preferred tiers were refused or failed), and
// TierReason carries why the chain moved.
type estimateResponse struct {
	Model         string            `json:"model"`
	Generation    int64             `json:"generation"`
	Query         string            `json:"query"`
	Estimate      float64           `json:"estimate"`
	Tier          string            `json:"tier"`
	TierReason    string            `json:"tier_reason,omitempty"`
	Breakdown     []estimatorResult `json:"breakdown"`
	Cache         cacheInfo         `json:"cache"`
	LatencyMicros int64             `json:"latency_micros"`
	Exact         *exactResult      `json:"exact,omitempty"`
	Trace         *obs.SpanDump     `json:"trace,omitempty"`
	Explain       *core.Explanation `json:"explain,omitempty"`
}

// cachedEstimate is what the inference cache stores: everything derived
// from running the estimators, nothing request-specific. reply, set only
// on entries a single-estimate miss filled, is writeJSON's rendering of
// the answer up to the cache block (see renderReply); it is written
// before the entry is published and never after.
type cachedEstimate struct {
	query      string
	estimate   float64
	tier       string
	tierReason string
	breakdown  []estimatorResult
	reply      []byte
}

// response is the reply body for this answer from model at generation gen.
func (ce *cachedEstimate) response(model string, gen int64, c cacheInfo) *estimateResponse {
	return &estimateResponse{
		Model:      model,
		Generation: gen,
		Query:      ce.query,
		Estimate:   ce.estimate,
		Tier:       ce.tier,
		TierReason: ce.tierReason,
		Breakdown:  ce.breakdown,
		Cache:      c,
	}
}

// replyTail is how writeJSON ends a response whose Cache and
// LatencyMicros are zero and that has no exact, trace, or explain
// section.
const replyTail = "  \"cache\": {\n    \"hit\": false,\n    \"deduped\": false\n  },\n  \"latency_micros\": 0\n}\n"

// renderReply renders ce's reply as writeJSON does and keeps everything
// before the cache block, so a plain answer is the prefix plus
// appendReplyTail's bytes instead of a fresh encode. It returns nil when
// the answer does not encode (a baseline's non-finite estimate), leaving
// such answers to writeJSON.
func renderReply(model string, gen int64, ce *cachedEstimate) []byte {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, ce.response(model, gen, cacheInfo{})); err != nil {
		return nil
	}
	return bytes.Clone(bytes.TrimSuffix(buf.Bytes(), []byte(replyTail)))
}

// appendReplyTail appends the request-specific end of a pre-rendered
// reply, byte for byte as writeJSON renders those fields.
func appendReplyTail(b []byte, c cacheInfo, latencyMicros int64) []byte {
	b = append(b, "  \"cache\": {\n    \"hit\": "...)
	b = strconv.AppendBool(b, c.Hit)
	b = append(b, ",\n    \"deduped\": "...)
	b = strconv.AppendBool(b, c.Deduped)
	b = append(b, "\n  },\n  \"latency_micros\": "...)
	b = strconv.AppendInt(b, latencyMicros, 10)
	return append(b, "\n}\n"...)
}

// nonFiniteError marks a primary estimate that came back NaN or ±Inf.
// runEstimators returns it instead of a result so the poisoned value never
// enters the cache; the handler maps it to a 500.
type nonFiniteError struct {
	estimator string
	value     float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf("serve: estimator %s produced a non-finite estimate (%v)", e.estimator, e.value)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	// Every estimate request is traced: the finished span tree feeds the
	// per-stage latency histograms, and ?trace=1 additionally returns it.
	tr := obs.NewTracer("request")
	ctx := obs.NewContext(r.Context(), tr.Root())
	jd := &estimateDraft{}
	defer func() {
		tr.End()
		tr.Root().Visit(s.metrics.ObserveStage)
		s.finishEstimate(r.Context(), jd, started, tr)
	}()
	// fail routes every error through the journal draft on its way out.
	fail := func(code int, msg string) {
		jd.status, jd.errMsg = code, msg
		s.fail(w, code, msg)
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req estimateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
			return
		}
		fail(http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	jd.query = req.Query
	if strings.TrimSpace(req.Query) == "" {
		fail(http.StatusBadRequest, `"query" is required`)
		return
	}

	model, ok := s.resolveModel(req.Model)
	if !ok {
		if req.Model == "" {
			fail(http.StatusBadRequest, `"model" is required when several models are registered`)
		} else {
			fail(http.StatusNotFound, fmt.Sprintf("unknown model %q", req.Model))
		}
		return
	}
	snap := model.Current()
	jd.model, jd.generation = model.Name, snap.Generation
	w.Header().Set(GenHeader, strconv.FormatInt(snap.Generation, 10))

	psp := tr.Root().Start("parse")
	q, err := queryparse.Parse(snap.DB, req.Query)
	psp.End()
	if err != nil {
		jd.status, jd.errMsg = http.StatusBadRequest, err.Error()
		s.failParse(w, err)
		return
	}

	wanted, err := selectEstimators(snap, req.Estimators)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}

	// Cache key: model generation + estimator selection + canonical
	// query. Including the generation makes hot-swaps self-invalidating —
	// entries of the old generation simply stop being looked up and age
	// out of the LRU.
	key := fmt.Sprintf("%s\x00%d\x00%s\x00%s",
		model.Name, snap.Generation, strings.Join(wanted, ","), q.CanonicalKey())

	cctx, csp := obs.Start(ctx, "cache")
	val, hit, deduped, err := s.cache.Do(key, func() (any, error) {
		return s.estimateMiss(cctx, snap, wanted, q, model.Name)
	})
	csp.Set(obs.Bool("hit", hit), obs.Bool("deduped", deduped))
	csp.End()
	s.metrics.ObserveCache(hit, deduped)
	jd.cache = "miss"
	if hit {
		jd.cache = "hit"
	} else if deduped {
		jd.cache = "deduped"
	}
	if err != nil {
		jd.status, jd.errMsg = 0, err.Error()
		switch {
		case errors.Is(err, ErrShed):
			jd.status = http.StatusServiceUnavailable
			setRetryAfter(w, s.res.retryAfter())
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":  err.Error(),
				"reason": "brownout shed state: cache-missing estimates refused until pressure clears",
			})
			return
		case errors.Is(err, ErrQueueFull):
			s.metrics.ObserveAdmission(false)
			jd.status = http.StatusTooManyRequests
			setRetryAfter(w, time.Second)
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":  err.Error(),
				"reason": "admission queue full; back off and retry",
			})
			return
		case errors.Is(err, ErrQueueTimeout):
			s.metrics.ObserveAdmission(true)
			jd.status = http.StatusServiceUnavailable
			setRetryAfter(w, s.cfg.QueueTimeout)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":  err.Error(),
				"reason": "inference capacity saturated past the queue deadline",
			})
			return
		}
		s.metrics.ObserveError()
		var nf *nonFiniteError
		if errors.As(err, &nf) {
			s.metrics.ObserveNonFinite()
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client went away (or the request deadline fired) while
			// inference was running; report it as an availability failure
			// rather than a query problem.
			jd.status = http.StatusServiceUnavailable
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":  err.Error(),
				"reason": "request cancelled before inference finished",
			})
			return
		}
		fail(http.StatusUnprocessableEntity, err.Error())
		return
	}
	ce := val.(*cachedEstimate)
	jd.query, jd.tier = ce.query, ce.tier
	c := cacheInfo{Hit: hit, Deduped: deduped}

	seq := s.reqSeq.Add(1)
	sampled := s.cfg.ExactEvery > 0 && seq%int64(s.cfg.ExactEvery) == 0
	trace := r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
	if ce.reply != nil && !req.Exact && !sampled && !trace {
		// A plain answer: the entry's pre-rendered reply plus this
		// request's cache outcome and latency.
		jd.status = http.StatusOK
		// Room for the tail: replyTail's length plus 20 latency digits.
		b := append(make([]byte, 0, len(ce.reply)+len(replyTail)+20), ce.reply...)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(appendReplyTail(b, c, time.Since(started).Microseconds()))
		return
	}
	resp := ce.response(model.Name, snap.Generation, c)

	// Ground truth: on request, or on the configured sampling cadence.
	if req.Exact || sampled {
		exactStart := time.Now()
		esp := tr.Root().Start("exact")
		truth, err := snap.DB.Count(q)
		esp.End()
		if err == nil {
			s.metrics.ObserveQError(ce.estimate, truth)
			qe := qerror(ce.estimate, truth)
			s.slo.Observe(sloQError, qe <= s.cfg.SLOQErrorMax)
			resp.Exact = &exactResult{
				Count:  truth,
				Micros: time.Since(exactStart).Microseconds(),
				QError: qe,
			}
		}
	}

	resp.LatencyMicros = time.Since(started).Microseconds()
	jd.status = http.StatusOK

	if trace {
		tr.End()
		resp.Trace = tr.Root().Dump()
		if ex, ok := snap.Primary().(explainer); ok && len(q.NonKeyJoins) == 0 {
			if e, err := ex.Explain(q); err == nil {
				// The explanation walks the exact path; stamp it with the
				// tier the served estimate actually came from so a degraded
				// answer is not mistaken for an exact one.
				if resp.Tier != "" {
					e.Tier = core.Tier(resp.Tier)
				}
				resp.Explain = e
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// explainer is the optional estimator capability behind ?trace=1's explain
// payload; the PRM implements it.
type explainer interface {
	Explain(q *query.Query) (*core.Explanation, error)
}

// contextEstimator is the optional estimator capability the request
// context flows through: tracing spans and early cancellation. The PRM
// implements it; plain baselines run uninterruptible (they are fast).
type contextEstimator interface {
	EstimateCountCtx(ctx context.Context, q *query.Query) (float64, error)
}

// fallbackEstimator is the optional primary-estimator capability behind
// graceful degradation: an estimate through the exact→approx chain under a
// resource budget, annotated with the tier that answered. The PRM
// implements it.
type fallbackEstimator interface {
	EstimateCountFallback(ctx context.Context, q *query.Query, opts core.EstimateOptions) (core.EstimateResult, error)
}

// estimateMiss is the shared cache-miss body for single and batch
// estimates: shed check first (a shed server still serves cache hits,
// which never reach here), then admission, then the estimator run.
// Answers degraded by the brownout tier ceiling come back wrapped in
// noStore so they never enter the cache — a cached AVI answer would
// otherwise keep serving long after the brownout released. A single
// estimate names its model so the answer's reply is pre-rendered here,
// before Do publishes the entry; the batch endpoint passes "" and renders
// its own items.
func (s *Server) estimateMiss(ctx context.Context, snap *Snapshot, wanted []string, q *query.Query, model string) (any, error) {
	if s.res != nil && s.res.shedding() {
		s.res.noteShed()
		return nil, ErrShed
	}
	// Admission sits on the cache-miss path only: a hit costs nothing
	// worth queueing for, and an admission refusal is an error, so it
	// can never be cached against the query.
	if s.adm != nil {
		if err := s.adm.acquire(ctx.Done(), queryWeight(q)); err != nil {
			return nil, err
		}
		defer s.adm.release(queryWeight(q))
	}
	ce, err := s.runEstimators(ctx, snap, wanted, q)
	if err != nil {
		return nil, err
	}
	if model != "" {
		ce.reply = renderReply(model, snap.Generation, ce)
	}
	if ce.tier != string(core.TierExact) && s.tierCeiling() > tierCeilExact {
		return noStore{val: ce}, nil
	}
	return ce, nil
}

// runEstimators is the cache-miss path: run every selected estimator on
// the parsed query. The primary (PRM) runs through the degradation chain —
// exact elimination under the configured budget, then likelihood
// weighting, then the AVI baseline — so resource refusals and internal
// failures degrade the estimate instead of failing the request. Only when
// every tier fails (or the request is cancelled) does the computation
// fail. A non-primary baseline failing is reported inline so estimators
// with partial query support (SAMPLE, MHIST) degrade gracefully. A
// non-finite primary estimate is rejected with a nonFiniteError so it
// never enters the cache.
func (s *Server) runEstimators(ctx context.Context, snap *Snapshot, wanted []string, q *query.Query) (*cachedEstimate, error) {
	ce := &cachedEstimate{query: q.String(), tier: string(core.TierExact)}
	ceil := s.tierCeiling()
	for _, name := range wanted {
		est := snap.Estimator(name)
		res := estimatorResult{Estimator: name}
		estStart := time.Now()
		var v float64
		var err error
		if est == snap.Primary() {
			answered := false
			if ceil >= tierCeilAVI {
				// Brownout floor: serve straight from the AVI baseline
				// without touching inference at all. If AVI can't answer
				// this query shape, fall back into the (capped) chain.
				if avi := snap.Estimator("AVI"); avi != nil && avi != est {
					if av, aerr := avi.EstimateCount(q); aerr == nil {
						ce.tier = string(core.TierAVI)
						ce.tierReason = "brownout: inference disabled at current load"
						v, answered = av, true
					}
				}
			}
			if answered {
				// fallthrough to bookkeeping below
			} else if fest, ok := est.(fallbackEstimator); ok {
				opts := core.EstimateOptions{
					Budget:        bayesnet.Budget{MaxCells: s.cfg.MaxCells},
					ApproxSamples: s.cfg.ApproxSamples,
				}
				if ceil >= tierCeilApprox {
					opts.MaxTier = core.TierApprox
				}
				var fr core.EstimateResult
				fr, err = fest.EstimateCountFallback(ctx, q, opts)
				if err == nil {
					v = fr.Estimate
					ce.tier = string(fr.Tier)
					ce.tierReason = fr.Reason
				} else if degradableErr(err) {
					// Every core tier failed; the last line of defense is the
					// snapshot's AVI baseline, which shares no code with
					// elimination or sampling.
					if avi := snap.Estimator("AVI"); avi != nil {
						if av, aerr := avi.EstimateCount(q); aerr == nil {
							ce.tier = string(core.TierAVI)
							ce.tierReason = err.Error()
							v, err = av, nil
						}
					}
				}
			} else if cest, ok := est.(contextEstimator); ok {
				v, err = cest.EstimateCountCtx(ctx, q)
			} else if err = ctx.Err(); err == nil {
				v, err = est.EstimateCount(q)
			}
		} else if cest, ok := est.(contextEstimator); ok {
			v, err = cest.EstimateCountCtx(ctx, q)
		} else if err = ctx.Err(); err == nil {
			v, err = est.EstimateCount(q)
		}
		res.Micros = time.Since(estStart).Microseconds()
		if err != nil {
			// Cancellation always fails the computation — a half-cancelled
			// breakdown must never be cached as if it were the real answer.
			if est == snap.Primary() || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			res.Error = err.Error()
		} else {
			res.Estimate = v
			if est == snap.Primary() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, &nonFiniteError{estimator: name, value: v}
				}
				ce.estimate = v
			}
		}
		ce.breakdown = append(ce.breakdown, res)
	}
	s.metrics.ObserveTier(ce.tier)
	return ce, nil
}

// degradableErr mirrors core's degradation rule at the serving layer:
// cancellation fails the request, anything else may fall to the AVI tier.
func degradableErr(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// selectEstimators resolves the request's estimator filter against the
// snapshot, always keeping the primary, and returns the names in
// deterministic order (primary first, then sorted).
func selectEstimators(snap *Snapshot, filter []string) ([]string, error) {
	primary := snap.Primary().Name()
	if len(filter) == 0 {
		names := []string{primary}
		rest := make([]string, 0, len(snap.Estimators)-1)
		for _, e := range snap.Estimators {
			if e.Name() != primary {
				rest = append(rest, e.Name())
			}
		}
		sort.Strings(rest)
		return append(names, rest...), nil
	}
	seen := map[string]bool{primary: true}
	rest := make([]string, 0, len(filter))
	for _, name := range filter {
		if snap.Estimator(name) == nil {
			return nil, fmt.Errorf("unknown estimator %q (have %s)",
				name, strings.Join(sortedEstimatorNames(snap), ", "))
		}
		if !seen[name] {
			seen[name] = true
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append([]string{primary}, rest...), nil
}

// modelInfo is one entry of the GET /v1/models reply.
type modelInfo struct {
	Name        string         `json:"name"`
	Dataset     string         `json:"dataset"`
	Generation  int64          `json:"generation"`
	BuiltAt     time.Time      `json:"built_at"`
	BuildMillis int64          `json:"build_millis"`
	Rebuilding  bool           `json:"rebuilding"`
	Health      ModelHealth    `json:"health"`
	Tables      map[string]int `json:"tables"`
	Estimators  map[string]int `json:"estimators"` // name -> storage bytes
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := make([]modelInfo, 0, len(names))
	for _, name := range names {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		snap := m.Current()
		info := modelInfo{
			Name:        name,
			Dataset:     m.Spec.Dataset,
			Generation:  snap.Generation,
			BuiltAt:     snap.BuiltAt,
			BuildMillis: snap.BuildTime.Milliseconds(),
			Rebuilding:  m.Rebuilding(),
			Health:      m.Health(),
			Tables:      make(map[string]int),
			Estimators:  make(map[string]int),
		}
		if m.Spec.CSVDir != "" {
			info.Dataset = m.Spec.CSVDir
		}
		for _, tn := range snap.DB.TableNames() {
			info.Tables[tn] = snap.DB.Table(tn).Len()
		}
		for _, e := range snap.Estimators {
			info.Estimators[e.Name()] = e.StorageBytes()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

// startRebuild kicks a background rebuild with the server's standard
// logging and metrics hooks — shared by the rebuild endpoint and the
// drift watchdog's early rebuild.
func (s *Server) startRebuild(name string, m *Model) bool {
	return m.Rebuild(func(snap *Snapshot, err error) {
		if err != nil {
			s.logf("serve: rebuild of %s failed; serving last good snapshot: %v", name, err)
			return
		}
		s.metrics.ObserveRebuild()
		s.logf("serve: rebuilt %s (generation %d in %v)", name, snap.Generation, snap.BuildTime.Round(time.Millisecond))
	}, func(attempt int, err error, willRetry bool) {
		s.metrics.ObserveRebuildFailure(willRetry)
		if willRetry {
			s.logf("serve: rebuild of %s attempt %d failed (will retry): %v", name, attempt, err)
		}
	})
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	if !s.startRebuild(name, m) {
		s.fail(w, http.StatusConflict, fmt.Sprintf("model %q is already rebuilding", name))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"model":  name,
		"status": "rebuilding",
	})
}

// feedbackRequest is the POST /v1/feedback body: a client (typically the
// optimizer that executed the query) reports the true result size it
// observed, so the accuracy watchdog can track the served model's real
// q-error. Estimate, when positive, is the estimate the client received;
// otherwise Query must be set and the server recomputes the primary
// estimate itself.
type feedbackRequest struct {
	Model     string  `json:"model,omitempty"`
	Query     string  `json:"query,omitempty"`
	Estimate  float64 `json:"estimate,omitempty"`
	TrueCount int64   `json:"true_count"`
}

// handleFeedback ingests one observed ground truth into the model's
// accuracy watchdog. When the rolling p90 q-error crosses the model's
// drift threshold, the model flips to drifted in health, and — with
// Config.RebuildOnDrift — an early background rebuild starts.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req feedbackRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.TrueCount < 0 {
		s.fail(w, http.StatusBadRequest, `"true_count" must be non-negative`)
		return
	}
	model, ok := s.resolveModel(req.Model)
	if !ok {
		if req.Model == "" {
			s.fail(w, http.StatusBadRequest, `"model" is required when several models are registered`)
		} else {
			s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", req.Model))
		}
		return
	}

	estimate := req.Estimate
	if estimate <= 0 {
		if strings.TrimSpace(req.Query) == "" {
			s.fail(w, http.StatusBadRequest, `feedback needs "estimate" or "query"`)
			return
		}
		snap := model.Current()
		q, err := queryparse.Parse(snap.DB, req.Query)
		if err != nil {
			s.failParse(w, err)
			return
		}
		estimate, err = s.primaryEstimate(r.Context(), snap, q)
		if err != nil {
			s.fail(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	}

	qerr, flipped := model.ObserveFeedback(estimate, req.TrueCount)
	s.metrics.ObserveFeedback()
	s.metrics.ObserveQError(estimate, req.TrueCount)
	s.slo.Observe(sloQError, qerr <= s.cfg.SLOQErrorMax)

	rebuildStarted := false
	if flipped {
		s.metrics.ObserveDrift()
		h := model.Health()
		s.logf("serve: model %s drifted: p90 observed q-error %.2f over %d feedback samples", model.Name, h.DriftP90, h.FeedbackSamples)
		if s.cfg.RebuildOnDrift {
			rebuildStarted = s.startRebuild(model.Name, model)
			if rebuildStarted {
				s.logf("serve: model %s: early rebuild triggered by drift watchdog", model.Name)
			}
		}
		if ing := model.ingestor(); ing != nil {
			// A drifted ingest model refits immediately: the pending rows
			// are often exactly the distribution shift the watchdog saw.
			ing.TriggerRefit("drift")
		}
	}

	h := model.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"model":            model.Name,
		"qerror":           qerr,
		"drift_p90":        h.DriftP90,
		"feedback_samples": h.FeedbackSamples,
		"drifted":          h.Drifted,
		"rebuild_started":  rebuildStarted,
	})
}

// primaryEstimate runs just the primary estimator (through its
// degradation chain when available) — the feedback path's recomputation,
// which bypasses the cache and admission because feedback volume is a
// trickle next to estimate traffic.
func (s *Server) primaryEstimate(ctx context.Context, snap *Snapshot, q *query.Query) (float64, error) {
	est := snap.Primary()
	if fest, ok := est.(fallbackEstimator); ok {
		fr, err := fest.EstimateCountFallback(ctx, q, core.EstimateOptions{
			Budget:        bayesnet.Budget{MaxCells: s.cfg.MaxCells},
			ApproxSamples: s.cfg.ApproxSamples,
		})
		if err != nil {
			return 0, err
		}
		return fr.Estimate, nil
	}
	if cest, ok := est.(contextEstimator); ok {
		return cest.EstimateCountCtx(ctx, q)
	}
	return est.EstimateCount(q)
}

// handleHealthz reports liveness plus per-model serving health. The
// top-level status is "degraded" when any model's rebuild cycle has
// exhausted its retries or its accuracy watchdog tripped; "recovered"
// when models are still serving snapshots restored from the durable
// store (fresh rebuilds pending). The HTTP status stays 200 in every
// case because every model still serves — these are operator signals,
// not outages.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	recovered := false
	modelHealth := make(map[string]ModelHealth)
	for _, name := range s.reg.Names() {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		h := m.Health()
		modelHealth[name] = h
		if h.Degraded || h.Drifted {
			status = "degraded"
		}
		if h.Recovered {
			recovered = true
		}
	}
	if status == "ok" && recovered {
		status = "recovered"
	}
	body := map[string]any{
		"status":         status,
		"recovered":      recovered,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"models":         s.reg.Names(),
		"model_health":   modelHealth,
		"cache_entries":  s.cache.Len(),
		"plan_cache":     s.planCacheSnapshot(),
		"slo":            s.slo.Status(),
	}
	if s.journal != nil {
		body["journal"] = s.journal.Stats()
	}
	if s.adm != nil {
		used, queued, capacity := s.adm.snapshot()
		body["admission"] = map[string]any{
			"in_use":   used,
			"capacity": capacity,
			"queued":   queued,
		}
	}
	if s.res != nil {
		body["resilience"] = s.res.health()
	}
	writeJSON(w, http.StatusOK, body)
}

// resolveModel finds the target model: the named one, or the only one.
func (s *Server) resolveModel(name string) (*Model, bool) {
	if name == "" {
		return s.reg.Single()
	}
	return s.reg.Get(name)
}

// failParse renders a parse failure as a 400 carrying the error position,
// which is the point of queryparse's positional errors.
func (s *Server) failParse(w http.ResponseWriter, err error) {
	s.metrics.ObserveError()
	body := map[string]any{"error": err.Error()}
	if pe := queryparse.AsParseError(err); pe != nil {
		body["offset"] = pe.Offset
		if pe.Near != "" {
			body["near"] = pe.Near
		}
	}
	writeJSON(w, http.StatusBadRequest, body)
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	if code >= 500 {
		s.metrics.ObserveError()
	}
	writeJSON(w, code, map[string]any{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encodeJSON(w, v)
}

// encodeJSON is how every reply body is rendered; renderReply's
// pre-rendered replies depend on it being the same encoder settings.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// qerror is the symmetric multiplicative error, floored at one row on both
// sides so empty results stay finite (matches Metrics.ObserveQError).
func qerror(estimate float64, truth int64) float64 {
	e := estimate
	if e < 1 {
		e = 1
	}
	tr := float64(truth)
	if tr < 1 {
		tr = 1
	}
	if e > tr {
		return e / tr
	}
	return tr / e
}
