package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prmsel/internal/bayesnet"
	"prmsel/internal/obs"
	"prmsel/internal/query"
	"prmsel/internal/queryparse"
)

// batchEstimateRequest is the POST /v1/estimate/batch body: one model, many
// queries. A batch runs the primary estimator only — the baseline breakdown
// exists for interactive comparison, not bulk optimizer traffic.
type batchEstimateRequest struct {
	Model   string   `json:"model,omitempty"`
	Queries []string `json:"queries"`
}

// batchItemResponse is one query's outcome. Failures are per-item: Error is
// set and Estimate is zero while the other items answer normally.
type batchItemResponse struct {
	Query      string    `json:"query"`
	Estimate   float64   `json:"estimate"`
	Tier       string    `json:"tier,omitempty"`
	TierReason string    `json:"tier_reason,omitempty"`
	Cache      cacheInfo `json:"cache"`
	Micros     int64     `json:"micros"`
	Error      string    `json:"error,omitempty"`
}

// batchEstimateResponse is the POST /v1/estimate/batch reply. The HTTP
// status is 200 whenever the batch itself was well-formed; per-item
// failures are reported in place and counted in Failed.
type batchEstimateResponse struct {
	Model         string              `json:"model"`
	Generation    int64               `json:"generation"`
	Items         []batchItemResponse `json:"items"`
	Failed        int                 `json:"failed"`
	LatencyMicros int64               `json:"latency_micros"`
}

// handleEstimateBatch amortizes estimate traffic: one request parses every
// query up front, answers through the same inference cache as /v1/estimate
// (the keys are shared, so a batch warms the cache for single requests and
// vice versa), sorts items by canonical key so queries of one shape run
// adjacently (plan-cache locality), and executes across a bounded worker
// pool. Admission control applies per item on the cache-miss path exactly
// as it does for single requests, so a batch cannot starve interactive
// traffic.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tr := obs.NewTracer("batch")
	ctx := obs.NewContext(r.Context(), tr.Root())
	defer func() {
		tr.End()
		tr.Root().Visit(s.metrics.ObserveStage)
	}()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req batchEstimateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
			return
		}
		s.fail(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, `"queries" must be non-empty`)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d queries over the %d-item limit", len(req.Queries), s.cfg.MaxBatchItems))
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
	snap := model.Current()
	w.Header().Set(GenHeader, strconv.FormatInt(snap.Generation, 10))
	wanted := []string{snap.Primary().Name()}

	// Parse everything up front under one span; a parse failure costs its
	// item nothing but the error string.
	type workItem struct {
		idx int
		key string
		q   *query.Query
	}
	items := make([]batchItemResponse, len(req.Queries))
	work := make([]workItem, 0, len(req.Queries))
	psp := tr.Root().Start("parse")
	for i, text := range req.Queries {
		items[i].Query = text
		if strings.TrimSpace(text) == "" {
			items[i].Error = `"query" is required`
			continue
		}
		q, err := queryparse.Parse(snap.DB, text)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		items[i].Query = q.String()
		key := fmt.Sprintf("%s\x00%d\x00%s\x00%s",
			model.Name, snap.Generation, strings.Join(wanted, ","), q.CanonicalKey())
		work = append(work, workItem{idx: i, key: key, q: q})
	}
	psp.Set(obs.Int("items", len(req.Queries)), obs.Int("parsed", len(work)))
	psp.End()

	// Same-shape queries share a canonical-key prefix (tables, joins, and
	// predicated attributes precede predicate values), so key order is
	// shape order: a worker's run of consecutive items mostly reuses one
	// compiled plan instead of thrashing between shapes, and duplicate
	// queries land adjacently so all but the first hit the inference cache.
	sort.Slice(work, func(a, b int) bool { return work[a].key < work[b].key })

	workers := s.cfg.BatchWorkers
	if workers > len(work) {
		workers = len(work)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(cursor.Add(1)) - 1
				if n >= len(work) {
					return
				}
				it := work[n]
				s.estimateBatchItem(ctx, snap, wanted, it.key, it.q, &items[it.idx])
			}
		}()
	}
	wg.Wait()

	failed := 0
	for i := range items {
		if items[i].Error != "" {
			failed++
		}
	}
	resp := &batchEstimateResponse{
		Model:         model.Name,
		Generation:    snap.Generation,
		Items:         items,
		Failed:        failed,
		LatencyMicros: time.Since(started).Microseconds(),
	}
	s.metrics.ObserveRequest(time.Since(started))
	s.metrics.ObserveBatch(len(items), failed)
	s.journalEvent(r.Context(), "batch", http.StatusOK, failed > 0, started, func(ev *obs.Event) {
		ev.Model = model.Name
		ev.Generation = snap.Generation
		ev.Items = len(items)
		if failed > 0 {
			ev.Error = fmt.Sprintf("%d of %d items failed", failed, len(items))
		}
	})
	writeJSON(w, http.StatusOK, resp)
}

// estimateBatchItem answers one batch item through the shared inference
// cache; the miss path passes admission control and runs the primary
// estimator's degradation chain, identical to a single request asking for
// the primary only.
func (s *Server) estimateBatchItem(ctx context.Context, snap *Snapshot, wanted []string, key string, q *query.Query, item *batchItemResponse) {
	itemStart := time.Now()
	val, hit, deduped, err := s.cache.Do(key, func() (any, error) {
		return s.estimateMiss(ctx, snap, wanted, q, "")
	})
	item.Cache = cacheInfo{Hit: hit, Deduped: deduped}
	item.Micros = time.Since(itemStart).Microseconds()
	s.metrics.ObserveCache(hit, deduped)
	if err != nil {
		switch {
		case errors.Is(err, ErrShed):
			// A shed refusal is the server protecting itself, not an
			// internal error; the item reports it without counting one.
		case errors.Is(err, ErrQueueFull):
			s.metrics.ObserveAdmission(false)
		case errors.Is(err, ErrQueueTimeout):
			s.metrics.ObserveAdmission(true)
		default:
			var nf *nonFiniteError
			if errors.As(err, &nf) {
				s.metrics.ObserveNonFinite()
			}
			s.metrics.ObserveError()
		}
		item.Error = err.Error()
		return
	}
	ce := val.(*cachedEstimate)
	item.Estimate = ce.estimate
	item.Tier = ce.tier
	item.TierReason = ce.tierReason
}

// planStatser is the optional primary-estimator capability behind the
// plan-cache health detail; the core PRM implements it.
type planStatser interface {
	PlanStats() bayesnet.PlanCacheStats
}

// planCacheSnapshot renders the aggregated plan-cache counters for
// /healthz (the raw numbers come from planCacheStats in telemetry.go).
func (s *Server) planCacheSnapshot() map[string]any {
	agg := s.planCacheStats()
	return map[string]any{
		"hits":     agg.Hits,
		"misses":   agg.Misses,
		"entries":  agg.Entries,
		"hit_rate": agg.HitRate(),
	}
}
