package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/eval"
	"prmsel/internal/faults"
	"prmsel/internal/store"
)

// ModelHeader carries the model name on snapshot transfers.
const ModelHeader = "X-PRM-Model"

// handleReadyz is the readiness probe: 200 only while this replica
// should receive new traffic. Unlike /healthz (liveness plus operator
// detail, always 200 while the process serves), readiness is the
// routing signal the cluster gate and load balancers act on, and it
// flips to 503 *before* the listener closes so upstreams stop routing
// ahead of connection refusal. Not-ready reasons, in precedence order:
// draining (shutdown started), shed (brownout survival mode — cache
// hits would still answer, but a replica refusing every miss should not
// take fresh traffic while peers can), publishing (a model has no
// served snapshot yet). The body carries per-model serving generations
// so one poll gives the gate both health and rollout position.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	gens := make(map[string]int64)
	reason := ""
	for _, name := range s.reg.Names() {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		snap := m.Current()
		if snap == nil {
			reason = "publishing"
			gens[name] = 0
			continue
		}
		gens[name] = snap.Generation
	}
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.res != nil && s.res.shedding():
		reason = "shed"
	}
	if reason != "" {
		setRetryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "not_ready",
			"reason":      reason,
			"generations": gens,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"generations": gens,
	})
}

// handleSnapshotGet streams the named model's served generation in the
// durable store's CRC-framed format — the snapshot file format doubling
// as the wire protocol, so the receiving side validates a transfer
// exactly as it validates a disk read. ?if_newer_than=N answers 304
// when the served generation is not past N, which lets the gate poll
// cheaply during rollout.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	snap := m.Current()
	if snap == nil {
		setRetryAfter(w, time.Second)
		s.fail(w, http.StatusServiceUnavailable, fmt.Sprintf("model %q has no served snapshot yet", name))
		return
	}
	prm, ok := snap.Primary().(*eval.PRMEstimator)
	if !ok {
		s.fail(w, http.StatusConflict, fmt.Sprintf("model %q's primary estimator is not a transferable PRM", name))
		return
	}
	if v := r.URL.Query().Get("if_newer_than"); v != "" {
		after, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "if_newer_than must be an integer generation")
			return
		}
		if snap.Generation <= after {
			setGen(w, snap.Generation)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	var buf bytes.Buffer
	if err := prm.M.Encode(&buf); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Sprintf("encode model %q: %v", name, err))
		return
	}
	frame := store.Frame(buf.Bytes())
	w.Header().Set("Content-Type", "application/octet-stream")
	setGen(w, snap.Generation)
	w.Header().Set(ModelHeader, name)
	if err := faults.Inject("serve.snapshot.stream"); err != nil {
		// Torn-stream injection: half the frame, no Content-Length, so
		// the truncation arrives as a short-but-clean chunked body and
		// only the frame's own length/CRC checks can catch it.
		w.Write(frame[:len(frame)/2])
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// handleSnapshotLoad is the receiving half of rolling rollout: a framed
// snapshot (as served by handleSnapshotGet) posted with an X-PRM-Gen
// header is validated (CRC, then a structural decode) and published at
// that generation. Corruption maps to 422, a stale or raced generation
// and ingest models to 409 — a retry cannot fix either, but the 409
// body says what generation is actually serving.
func (s *Server) handleSnapshotLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	gen, err := strconv.ParseInt(r.Header.Get(GenHeader), 10, 64)
	if err != nil || gen <= 0 {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("%s header must be a positive integer generation", GenHeader))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, store.MaxSnapshotBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("snapshot over %d bytes", tooBig.Limit))
			return
		}
		s.fail(w, http.StatusBadRequest, "read snapshot body: "+err.Error())
		return
	}
	payload, err := store.Payload(raw)
	if err != nil {
		// A torn transfer or a flipped bit; the sender should re-fetch
		// from its source and try again rather than publish garbage.
		s.fail(w, http.StatusUnprocessableEntity, "snapshot frame rejected: "+err.Error())
		return
	}
	prm, err := core.Decode(bytes.NewReader(payload))
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "snapshot payload rejected: "+err.Error())
		return
	}
	snap, err := m.AdoptRemote(prm, gen)
	if err != nil {
		if cur := m.Current(); cur != nil {
			setGen(w, cur.Generation)
		}
		switch {
		case errors.Is(err, ErrStaleGeneration), errors.Is(err, ErrNotAdoptable):
			s.fail(w, http.StatusConflict, err.Error())
		default:
			s.fail(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	setGen(w, snap.Generation)
	s.logf("serve: model %s adopted remote snapshot generation %d", name, snap.Generation)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":      name,
		"generation": snap.Generation,
		"status":     "published",
	})
}
