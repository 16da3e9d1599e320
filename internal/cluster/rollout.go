package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prmsel/internal/faults"
	"prmsel/internal/httpretry"
	"prmsel/internal/store"
)

// RolloutStatus is one model rollout's observable state machine:
// surveying (find the newest generation and its source replica) →
// distributing (fetch the snapshot once, load it replica by replica) →
// done or failed. Promotion — raising the gate's routing floor so no
// response can come from an older generation — happens only once a
// quorum of replicas serve the target generation.
type RolloutStatus struct {
	Model            string            `json:"model"`
	State            string            `json:"state"` // surveying | distributing | done | failed
	TargetGeneration int64             `json:"target_generation,omitempty"`
	Source           string            `json:"source,omitempty"`
	Updated          []string          `json:"updated,omitempty"`
	Failed           map[string]string `json:"failed,omitempty"`
	Promoted         bool              `json:"promoted"`
	Error            string            `json:"error,omitempty"`
	StartedAt        time.Time         `json:"started_at"`
	FinishedAt       time.Time         `json:"finished_at,omitempty"`
}

func (st *RolloutStatus) clone() *RolloutStatus {
	c := *st
	c.Updated = append([]string(nil), st.Updated...)
	c.Failed = make(map[string]string, len(st.Failed))
	for k, v := range st.Failed {
		c.Failed[k] = v
	}
	return &c
}

// handleRollout starts a rolling rollout of the named model's newest
// generation across the cluster.
func (g *Gate) handleRollout(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Model string `json:"model"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		failJSON(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.Model == "" {
		failJSON(w, http.StatusBadRequest, `"model" is required`)
		return
	}
	st, err := g.StartRollout(req.Model)
	if err != nil {
		failJSON(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// Rollout returns the named model's most recent rollout status, if any.
func (g *Gate) Rollout(model string) (*RolloutStatus, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.rollouts[model]
	if !ok {
		return nil, false
	}
	return st.clone(), true
}

// StartRollout kicks a background rollout for the model; at most one
// runs per model at a time.
func (g *Gate) StartRollout(model string) (*RolloutStatus, error) {
	g.mu.Lock()
	if cur, ok := g.rollouts[model]; ok && (cur.State == "surveying" || cur.State == "distributing") {
		g.mu.Unlock()
		return nil, fmt.Errorf("cluster: rollout of %q already in flight", model)
	}
	st := &RolloutStatus{
		Model:     model,
		State:     "surveying",
		Failed:    make(map[string]string),
		StartedAt: time.Now(),
	}
	g.rollouts[model] = st
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.runRollout(model)
	}()
	return st.clone(), nil
}

// setRollout mutates the model's status under the gate lock.
func (g *Gate) setRollout(model string, fn func(*RolloutStatus)) {
	g.mu.Lock()
	if st, ok := g.rollouts[model]; ok {
		fn(st)
	}
	g.mu.Unlock()
}

func (g *Gate) finishRollout(model, state, errMsg string) {
	g.setRollout(model, func(st *RolloutStatus) {
		st.State = state
		st.Error = errMsg
		st.FinishedAt = time.Now()
	})
	g.m.rollouts.With(state).Inc()
	if errMsg != "" {
		g.logf("cluster: rollout of %s %s: %s", model, state, errMsg)
	} else {
		g.logf("cluster: rollout of %s %s", model, state)
	}
}

func (g *Gate) runRollout(model string) {
	// Survey on fresh health data: a rollout is usually triggered right
	// after a rebuild, and waiting a full health interval to notice the
	// new generation would make the state machine racy to drive.
	g.checkAll()

	var (
		target int64
		source *Replica
	)
	reachable := make([]*Replica, 0, len(g.replicas))
	for _, rep := range g.replicas {
		if rep.State() == StateDown || rep.Drained() {
			continue
		}
		reachable = append(reachable, rep)
		if gen := rep.Generation(model); gen > target {
			target, source = gen, rep
		}
	}
	if source == nil {
		g.finishRollout(model, "failed", fmt.Sprintf("no reachable replica serves model %q", model))
		return
	}
	g.setRollout(model, func(st *RolloutStatus) {
		st.TargetGeneration = target
		st.Source = source.Addr
		st.State = "distributing"
	})

	behind := make([]*Replica, 0, len(reachable))
	for _, rep := range reachable {
		if rep != source && rep.Generation(model) < target {
			behind = append(behind, rep)
		}
	}
	atTarget := len(reachable) - len(behind)

	if len(behind) > 0 {
		frame, err := g.fetchSnapshot(source, model, target)
		if err != nil {
			g.finishRollout(model, "failed", fmt.Sprintf("fetch snapshot from %s: %v", source.Addr, err))
			return
		}
		// Strictly rolling: one replica at a time, so a bad generation
		// that somehow passed validation can be caught (and the rollout
		// aborted) before it owns the whole cluster.
		for _, rep := range behind {
			if err := g.loadSnapshot(rep, model, target, frame); err != nil {
				g.setRollout(model, func(st *RolloutStatus) { st.Failed[rep.Addr] = err.Error() })
				g.logf("cluster: rollout of %s: load on %s failed: %v", model, rep.Addr, err)
				continue
			}
			rep.setGeneration(model, target)
			atTarget++
			g.setRollout(model, func(st *RolloutStatus) { st.Updated = append(st.Updated, rep.Addr) })
		}
	}

	if atTarget >= g.cfg.Quorum {
		g.setPromoted(model, target)
		g.setRollout(model, func(st *RolloutStatus) { st.Promoted = true })
		g.finishRollout(model, "done", "")
		return
	}
	g.finishRollout(model, "failed",
		fmt.Sprintf("only %d of %d replicas serve generation %d (quorum %d)", atTarget, len(g.replicas), target, g.cfg.Quorum))
}

// snapshotFetches bounds how many times a rollout fetches a snapshot
// whose frame fails validation.
const snapshotFetches = 3

// fetchSnapshot downloads the model's framed snapshot from the source
// replica and validates the frame (magic, length, CRC) before anything
// is distributed. A torn stream or a flipped bit fails validation and
// triggers a re-fetch — up to snapshotFetches in all — because the
// source still has the intact artifact; distribution never forwards
// bytes the gate has not checked.
func (g *Gate) fetchSnapshot(source *Replica, model string, target int64) ([]byte, error) {
	url := fmt.Sprintf("%s/v1/models/%s/snapshot", source.Addr, model)
	var lastErr error
	for attempt := 1; attempt <= snapshotFetches; attempt++ {
		if attempt > 1 {
			g.m.refetch.Inc()
		}
		raw, gen, err := g.fetchOnce(url)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := store.Payload(raw); err != nil {
			lastErr = fmt.Errorf("frame validation: %w", err)
			g.logf("cluster: snapshot fetch of %s from %s attempt %d rejected: %v", model, source.Addr, attempt, err)
			continue
		}
		if gen != target {
			// The source moved generations mid-rollout; the newer one is
			// fine to distribute — it supersedes the surveyed target.
			g.logf("cluster: snapshot of %s from %s is generation %d (surveyed %d)", model, source.Addr, gen, target)
		}
		return raw, nil
	}
	return nil, fmt.Errorf("%d attempts: %w", snapshotFetches, lastErr)
}

func (g *Gate) fetchOnce(url string) (raw []byte, gen int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("snapshot endpoint returned %s: %s", resp.Status, body)
	}
	raw, err = io.ReadAll(io.LimitReader(resp.Body, store.MaxSnapshotBytes))
	if err != nil {
		return nil, 0, err
	}
	if ferr := faults.Inject("cluster.fetch"); ferr != nil && len(raw) > 0 {
		// Injected torn fetch: drop the tail, as a mid-transfer
		// connection loss would.
		raw = raw[:len(raw)/2]
	}
	gen, _ = parseInt64(resp.Header.Get(genHeader))
	return raw, gen, nil
}

// loadSnapshot posts the validated frame to one replica, through the
// shared retrying client (a replica mid-GC or briefly shedding should
// not fail a rollout).
func (g *Gate) loadSnapshot(rep *Replica, model string, gen int64, frame []byte) error {
	rc := httpretry.New(httpretry.Config{
		MaxAttempts: 3,
		Client:      g.client,
		Seed:        g.cfg.Seed,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/v1/models/%s/load", rep.Addr, model)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(genHeader, fmt.Sprintf("%d", gen))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(frame)), nil }
	resp, err := rc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusConflict:
		// Already at (or past) the target: the replica rebuilt on its
		// own, or a previous rollout attempt landed. Not a failure.
		if cur, ok := parseInt64(resp.Header.Get(genHeader)); ok && cur >= gen {
			return nil
		}
		return fmt.Errorf("load returned %s: %s", resp.Status, body)
	default:
		return fmt.Errorf("load returned %s: %s", resp.Status, body)
	}
}

func parseInt64(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}
