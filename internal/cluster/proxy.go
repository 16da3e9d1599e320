package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"prmsel/internal/faults"
	"prmsel/internal/httpretry"
)

// genHeader / replicaHeader mirror the serve package's header names;
// the gate speaks the wire protocol rather than importing the server.
const (
	genHeader     = "X-PRM-Gen"
	replicaHeader = "X-PRM-Replica"
	modelHeader   = "X-PRM-Model"
)

// Handler returns the gate's HTTP handler: the forwarded /v1 API plus
// the gate's own health, metrics, and cluster-control endpoints.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, func(req bodyPeek) (key string, model string) {
			return req.Model + "\x00" + req.Query, req.Model
		}, true)
	})
	mux.HandleFunc("POST /v1/estimate/batch", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, func(req bodyPeek) (string, string) {
			return req.Model, req.Model
		}, true)
	})
	// The write and feedback paths are not idempotent (ingest appends
	// rows; feedback moves the drift window): exactly one attempt. A
	// failed forward surfaces to the client, which owns retry.
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, func(req bodyPeek) (string, string) {
			return req.Model, req.Model
		}, false)
	})
	mux.HandleFunc("POST /v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, func(req bodyPeek) (string, string) {
			return req.Model, req.Model
		}, false)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		g.forward(w, r, "models", "", nil, true)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.status())
	})
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.status())
	})
	mux.HandleFunc("POST /v1/cluster/rollout", g.handleRollout)
	mux.HandleFunc("POST /v1/cluster/drain", g.handleDrain)
	return mux
}

// handleReadyz: the gate is ready while it is not draining and at least
// one replica can take traffic.
func (g *Gate) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case g.draining.Load():
		setRetryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not_ready", "reason": "draining"})
	case g.ring.Load().Len() == 0:
		setRetryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not_ready", "reason": "no healthy replicas"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (g *Gate) handleMetrics(w http.ResponseWriter, r *http.Request) {
	om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	if om {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_ = g.cfg.Metrics.WritePrometheus(w, om)
}

func (g *Gate) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Replica string `json:"replica"`
		Undrain bool   `json:"undrain,omitempty"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		failJSON(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	rep, ok := g.byAddr[req.Replica]
	if !ok {
		failJSON(w, http.StatusNotFound, fmt.Sprintf("unknown replica %q", req.Replica))
		return
	}
	g.setDrained(rep, !req.Undrain)
	g.logf("cluster: replica %s drained=%v (operator)", rep.Addr, !req.Undrain)
	writeJSON(w, http.StatusOK, map[string]any{
		"replica": rep.Addr,
		"drained": !req.Undrain,
	})
}

// bodyPeek is the part of a forwarded body the gate needs for routing.
type bodyPeek struct {
	Model string `json:"model"`
	Query string `json:"query"`
}

// forwardBody reads the request body (it must be buffered anyway — a
// retry has to replay it), peeks at the model and query for the hash
// key, and forwards. An unparsable body is still forwarded (key "")
// so the replica owns the error message.
func (g *Gate) forwardBody(w http.ResponseWriter, r *http.Request, keyFn func(bodyPeek) (string, string), idempotent bool) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			failJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
			return
		}
		failJSON(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var peek bodyPeek
	_ = json.Unmarshal(body, &peek)
	key, model := keyFn(peek)
	g.forward(w, r, key, model, body, idempotent)
}

// attemptResult is one fully-buffered replica response.
type attemptResult struct {
	replica string
	status  int
	header  http.Header
	body    []byte
}

// outcome classifies one attempt for the retry loop.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeProtective
	outcomeError
)

// forward routes one request along the key's failover chain, one attempt
// at a time on the request's own goroutine. An idempotent request gets up
// to MaxAttempts attempts; ingest and feedback get one. The first
// non-error outcome answers, a 4xx included. Exhaustion relays the last
// protective response (it carries the replica's own Retry-After), or else
// synthesizes a 503 that still carries Retry-After, so clients and SLO
// accounting see structured pushback, never a connection error.
func (g *Gate) forward(w http.ResponseWriter, r *http.Request, key, model string, body []byte, idempotent bool) {
	started := time.Now()
	defer func() { g.m.latency.Observe(time.Since(started).Seconds()) }()

	candidates := g.candidates(key, model)
	if len(candidates) == 0 {
		g.m.requests.With("no_replica").Inc()
		setRetryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  "no replica available",
			"reason": "no healthy replica is eligible for this request",
		})
		return
	}
	budget := 1
	if idempotent {
		budget = min(g.cfg.MaxAttempts, len(candidates))
	}

	var lastProtective *attemptResult
	attempts := 0
	for _, rep := range candidates[:budget] {
		if attempts > 0 {
			if r.Context().Err() != nil {
				break
			}
			g.m.retries.Inc()
		}
		attempts++
		res, out := g.try(r, rep, body)
		switch out {
		case outcomeOK:
			g.m.requests.With("ok").Inc()
			g.writeResult(w, res)
			return
		case outcomeProtective:
			// Pushback retries at once on the next replica: the pushing
			// one asked for distance, not the cluster.
			lastProtective = res
		case outcomeError:
			// A transport error or 5xx pauses first, so a blinking
			// replica is not machine-gunned.
			if attempts < budget {
				g.sleepJittered(r, g.cfg.RetryBackoff)
			}
		}
	}

	if lastProtective != nil {
		g.m.requests.With("protective").Inc()
		g.writeResult(w, lastProtective)
		return
	}
	g.m.requests.With("error").Inc()
	setRetryAfter(w, time.Second)
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":  "all replicas failed",
		"reason": fmt.Sprintf("no replica answered after %d attempts", attempts),
	})
}

// maxRespBytes bounds a buffered replica response.
const maxRespBytes = 8 << 20

// try sends one attempt to one replica and classifies the result. A 4xx
// is a success for routing purposes (the request itself is bad; another
// replica would say the same), protective pushback is not charged
// against the breaker (the replica is healthy and defending itself),
// everything else is breaker evidence.
func (g *Gate) try(r *http.Request, rep *Replica, body []byte) (*attemptResult, outcome) {
	if err := rep.br.Allow(); err != nil {
		return nil, outcomeError
	}
	if err := faults.Inject("cluster.forward"); err != nil {
		rep.br.Record(err)
		return nil, outcomeError
	}
	url := rep.Addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		rep.br.Record(err)
		return nil, outcomeError
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		// The client's own cancellation is not replica evidence.
		if r.Context().Err() == nil {
			rep.br.Record(err)
		}
		return nil, outcomeError
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	if err != nil {
		rep.br.Record(err)
		return nil, outcomeError
	}
	res := &attemptResult{
		replica: rep.Addr,
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    respBody,
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		rep.br.Record(nil)
		return res, outcomeProtective
	case resp.StatusCode >= 500:
		rep.br.Record(fmt.Errorf("cluster: replica %s returned %s", rep.Addr, resp.Status))
		return res, outcomeError
	default:
		rep.br.Record(nil)
		return res, outcomeOK
	}
}

// writeResult relays a buffered replica response, stamping which
// replica answered.
func (g *Gate) writeResult(w http.ResponseWriter, res *attemptResult) {
	for _, h := range []string{"Content-Type", "Retry-After", genHeader, modelHeader, "X-PRM-Trace"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(replicaHeader, res.replica)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// sleepJittered pauses for d ±50%, bailing early if the request dies.
func (g *Gate) sleepJittered(r *http.Request, d time.Duration) {
	g.mu.Lock()
	u := g.rng.Float64()
	g.mu.Unlock()
	t := time.NewTimer(httpretry.Backoff(1, d, d, 0.5, u))
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func failJSON(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
