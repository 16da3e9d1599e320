package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prmsel/internal/faults"
	"prmsel/internal/ingest"
	"prmsel/internal/store"
)

// ingestRegistry opens a store in dir and registers fig1 with the
// streaming write path enabled.
func ingestRegistry(t *testing.T, dir string, pol IngestPolicy) (*Registry, *Model) {
	t.Helper()
	st, err := store.Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol.Enabled = true
	reg := NewRegistry()
	reg.SetLogf(func(string, ...any) {})
	reg.UseStore(st)
	m, err := reg.Add("fig1", BuildSpec{Dataset: "fig1", Retry: fastRetry, Ingest: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		reg.Close(ctx)
	})
	return reg, m
}

func postJSON(t *testing.T, url, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp, out
}

// waitForGeneration polls until the served snapshot reaches at least gen.
func waitForGeneration(t *testing.T, m *Model, gen int64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap := m.Current(); snap.Generation >= gen {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("snapshot never reached generation %d (at %d)", gen, m.Current().Generation)
	return nil
}

// TestIngestEndpointEndToEnd walks the closed loop over HTTP: ingest rows
// into a live model, cross the refit threshold, and watch the served
// estimates move to the new distribution.
func TestIngestEndpointEndToEnd(t *testing.T) {
	reg, m := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: 50})
	srv, ts := durableServer(t, reg, Config{})
	baseGen := m.Current().Generation

	// Single-row form, labels resolved against the schema.
	resp, out := postJSON(t, ts.URL, "/v1/ingest",
		`{"row":{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", resp.StatusCode, out)
	}
	if out["accepted"].(float64) != 1 || out["wal_seq"].(float64) != 1 {
		t.Fatalf("unexpected ingest response %v", out)
	}
	if out["pending_rows"].(float64) < 1 {
		t.Fatalf("pending_rows = %v, want >= 1", out["pending_rows"])
	}

	// Batch form with numeric codes; 49 more rows crosses RefitRows=50.
	rows := make([]string, 49)
	for i := range rows {
		rows[i] = `{"table":"People","attrs":{"Education":1,"Income":2,"HomeOwner":1}}`
	}
	resp, out = postJSON(t, ts.URL, "/v1/ingest", `{"rows":[`+strings.Join(rows, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest status = %d, body %v", resp.StatusCode, out)
	}

	// The refit publishes a new generation whose dataset holds the rows.
	snap := waitForGeneration(t, m, baseGen+1)
	if got := snap.DB.Table("People").Len(); got != 1050 {
		t.Fatalf("published snapshot has %d rows, want 1050", got)
	}
	resp, out = postJSON(t, ts.URL, "/v1/estimate",
		`{"query":"FROM People p WHERE p.Education = college AND p.Income = high AND p.HomeOwner = true","exact":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d, body %v", resp.StatusCode, out)
	}
	exact := out["exact"].(map[string]any)
	if count := exact["count"].(float64); count != 104 {
		t.Fatalf("exact count after ingest = %v, want 104 (54 base + 50 ingested)", count)
	}

	// The write path shows up in health and metrics.
	h := m.Health()
	if h.Ingest == nil || h.Ingest.LastSeq != 2 {
		t.Fatalf("health ingest block = %+v, want last_seq 2", h.Ingest)
	}
	ms := srv.Metrics().Snapshot()
	ingestVars := ms["ingest"].(map[string]int64)
	if ingestVars["rows_ingested"] != 50 || ingestVars["wal_bytes"] <= 0 {
		t.Fatalf("ingest metrics = %v", ingestVars)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Snapshot()["ingest"].(map[string]int64)["refit_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refit_total never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestEndpointRejections covers the failure statuses: bad rows 400,
// a model without a write path 409.
func TestIngestEndpointRejections(t *testing.T) {
	reg, _ := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: -1})
	srv, ts := durableServer(t, reg, Config{})

	for name, body := range map[string]string{
		"unknown table": `{"row":{"table":"Nope","attrs":{"X":0}}}`,
		"bad label":     `{"row":{"table":"People","attrs":{"Education":"phd","Income":"high","HomeOwner":"true"}}}`,
		"bad code":      `{"row":{"table":"People","attrs":{"Education":9,"Income":2,"HomeOwner":1}}}`,
		"missing attr":  `{"row":{"table":"People","attrs":{"Education":1}}}`,
		"no rows":       `{}`,
		"unknown field": `{"row":{"table":"People","attrs":{"Education":1,"Income":2,"HomeOwner":1},"extra":1}}`,
	} {
		resp, out := postJSON(t, ts.URL, "/v1/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %v", name, resp.StatusCode, out)
		}
	}
	if rejected := srv.Metrics().Snapshot()["ingest"].(map[string]int64)["rejected"]; rejected != 6 {
		t.Errorf("rejected counter = %d, want 6", rejected)
	}

	// A read-only model refuses ingest with 409.
	_, roTS := newTestServer(t)
	resp, out := postJSON(t, roTS.URL, "/v1/ingest",
		`{"row":{"table":"People","attrs":{"Education":1,"Income":2,"HomeOwner":1}}}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("read-only ingest status = %d, body %v", resp.StatusCode, out)
	}
}

// TestIngestRecoveryAcrossRestart is the crash path in-process: rows
// acknowledged but never refit (they live only in the WAL) must reappear
// in the served snapshot after a registry "restart" on the same store.
func TestIngestRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg1, m1 := ingestRegistry(t, dir, IngestPolicy{RefitRows: -1})
	_, ts1 := durableServer(t, reg1, Config{})
	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, ts1.URL, "/v1/ingest",
			`{"rows":[{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}},
			          {"table":"People","attrs":{"Education":"advanced","Income":"low","HomeOwner":"false"}}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d, body %v", i, resp.StatusCode, out)
		}
	}
	if h := m1.Health(); h.Ingest == nil || h.Ingest.PendingRows != 6 {
		t.Fatalf("pending before restart = %+v, want 6", h.Ingest)
	}
	// The served snapshot predates the rows: they are only in the WAL.
	if got := m1.Current().DB.Table("People").Len(); got != 1000 {
		t.Fatalf("pre-restart snapshot has %d rows, want 1000", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	reg2, m2 := ingestRegistry(t, dir, IngestPolicy{RefitRows: -1})
	snap := m2.Current()
	if got := snap.DB.Table("People").Len(); got != 1006 {
		t.Fatalf("recovered snapshot has %d rows, want 1006", got)
	}
	if h := m2.Health(); !h.Recovered || h.Ingest == nil || h.Ingest.LastSeq != 3 {
		t.Fatalf("recovered health = %+v / %+v", m2.Health(), m2.Health().Ingest)
	}
	// Ingest continues past the replayed sequence numbers.
	_, ts2 := durableServer(t, reg2, Config{})
	resp, out := postJSON(t, ts2.URL, "/v1/ingest",
		`{"row":{"table":"People","attrs":{"Education":1,"Income":2,"HomeOwner":1}}}`)
	if resp.StatusCode != http.StatusOK || out["wal_seq"].(float64) != 4 {
		t.Fatalf("post-recovery ingest: status %d, body %v", resp.StatusCode, out)
	}
}

// TestRebuildSeesIngestedRows is the immutability audit's regression
// test: a full structure rebuild must learn from the live staging
// database (base + ingested rows), not reload the spec's dataset.
func TestRebuildSeesIngestedRows(t *testing.T) {
	reg, m := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: -1})
	_, ts := durableServer(t, reg, Config{})
	for i := 0; i < 4; i++ {
		resp, out := postJSON(t, ts.URL, "/v1/ingest",
			`{"row":{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d, body %v", i, resp.StatusCode, out)
		}
	}
	gen := m.Current().Generation
	resp, out := postJSON(t, ts.URL, "/v1/models/fig1/rebuild", `{}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild status = %d, body %v", resp.StatusCode, out)
	}
	snap := waitForGeneration(t, m, gen+1)
	if got := snap.DB.Table("People").Len(); got != 1004 {
		t.Fatalf("rebuilt snapshot has %d rows, want 1004 — rebuild ignored the staging database", got)
	}
	if snap.Watermark != 4 {
		t.Fatalf("rebuilt snapshot watermark = %d, want 4", snap.Watermark)
	}
	// The rebuild settles the ledger: nothing stays pending.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := m.Health()
		if h.Ingest != nil && h.Ingest.PendingRows == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending after rebuild = %+v, want 0", h.Ingest)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRebuildStragglerRefitDoesNotDefer: a row acknowledged while a
// rebuild persists lands after the rebuild's clone point, so the rebuild
// leaves it pending and triggers a refit for it. That refit must run once
// the cycle ends, however long onDone takes, instead of deferring itself
// against the rebuild that asked for it.
func TestRebuildStragglerRefitDoesNotDefer(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	_, m := ingestRegistry(t, t.TempDir(), IngestPolicy{RefitRows: -1})
	ing := m.ingestor()
	straggler := make(chan error, 1)
	faults.Set("store.write", faults.Fault{Times: 1, OnHit: func(int) {
		_, err := ing.Ingest([]ingest.Row{{Table: "People", Attrs: []int32{1, 2, 1}}})
		straggler <- err
	}})
	done := make(chan error, 1)
	if !m.Rebuild(func(_ *Snapshot, err error) {
		time.Sleep(50 * time.Millisecond)
		done <- err
	}) {
		t.Fatal("Rebuild refused on an idle model")
	}
	if err := <-done; err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := <-straggler; err != nil {
		t.Fatalf("straggler ingest: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		h := m.Health()
		if h.Ingest.PendingRows == 0 && m.Current().DB.Table("People").Len() == 1001 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler row still pending 3s after the rebuild: %+v, served rows %d",
				h.Ingest, m.Current().DB.Table("People").Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestGenerationsGrowPastLostState: an ingest model whose newest
// dataset state is lost falls back to a fresh learn on restart. That
// restart must still serve a generation above the previous process's, so
// its own persisted generation is the newest on disk and the restart after
// it recovers that model, not an older file.
func TestIngestGenerationsGrowPastLostState(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	closeReg := func(reg *Registry) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := reg.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	reg1, m1 := ingestRegistry(t, dir, IngestPolicy{RefitRows: -1})
	for i := 0; i < 2; i++ {
		done := make(chan error, 1)
		if !m1.Rebuild(func(_ *Snapshot, err error) { done <- err }) {
			t.Fatal("Rebuild refused on an idle model")
		}
		if err := <-done; err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
		waitFor(t, "rebuild cycle to finish", func() bool { return !m1.Rebuilding() })
	}
	gen1 := m1.Current().Generation
	closeReg(reg1)
	lost := filepath.Join(dir, fmt.Sprintf("fig1-%08d.state", gen1))
	if err := os.Remove(lost); err != nil {
		t.Fatalf("removing the newest state artifact: %v", err)
	}

	reg2, m2 := ingestRegistry(t, dir, IngestPolicy{RefitRows: -1})
	if got := m2.Current().Generation; got <= gen1 {
		t.Fatalf("restart after a lost state serves generation %d, want above the previous process's %d", got, gen1)
	}
	// Give the restarted model rows of its own, so its newest generation
	// is a model no earlier file holds.
	ing := m2.ingestor()
	rows := make([]ingest.Row, 7)
	for i := range rows {
		rows[i] = ingest.Row{Table: "People", Attrs: []int32{1, 2, 1}}
	}
	if _, err := ing.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := ing.Refit("test"); err != nil {
		t.Fatal(err)
	}
	gen2 := m2.Current().Generation
	closeReg(reg2)

	_, m3 := ingestRegistry(t, dir, IngestPolicy{RefitRows: -1})
	snap := m3.Current()
	if snap.Generation <= gen2 {
		t.Errorf("second restart serves generation %d, want above %d", snap.Generation, gen2)
	}
	if !m3.Health().Recovered {
		t.Error("second restart did not recover from the store")
	}
	if got := snap.DB.Table("People").Len(); got != 1007 {
		t.Errorf("second restart serves %d rows, want the restarted model's 1007", got)
	}
}
