package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"prmsel/internal/bayesnet"
	"prmsel/internal/core"
	"prmsel/internal/faults"
	"prmsel/internal/store"
)

// freshFig1Server builds a server over its own registry — snapshot-load
// tests mutate the served generation, which must not leak into the
// package's shared fig1 registry.
func freshFig1Server(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Add("fig1", BuildSpec{Dataset: "fig1"}); err != nil {
		t.Fatalf("building fig1 model: %v", err)
	}
	srv := NewServer(Config{
		Registry: reg,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Logf:     func(string, ...any) {},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, out
}

func TestReadyzLifecycle(t *testing.T) {
	srv, ts := freshFig1Server(t)

	resp, out := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200 (body %v)", resp.StatusCode, out)
	}
	if out["status"] != "ready" {
		t.Errorf("status = %v, want ready", out["status"])
	}
	gens, ok := out["generations"].(map[string]any)
	if !ok {
		t.Fatalf("no generations block in %v", out)
	}
	if g, _ := gens["fig1"].(float64); g < 1 {
		t.Errorf("fig1 generation = %v, want >= 1", gens["fig1"])
	}

	// Drain: readyz flips to 503 with the draining reason and a
	// Retry-After, while the estimate path keeps serving — that is the
	// whole point of flipping readiness before the listener closes.
	srv.StartDrain()
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if out["reason"] != "draining" {
		t.Errorf("reason = %v, want draining", out["reason"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz lacks Retry-After")
	}
	eresp, eout := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high"}`)
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("estimate while draining = %d, want 200 (body %v)", eresp.StatusCode, eout)
	}
}

func TestReadyzShedState(t *testing.T) {
	srv, ts := freshFig1Server(t)
	if srv.res == nil {
		t.Fatal("brownout loop unexpectedly disabled")
	}
	srv.res.shedOn.Store(true)
	resp, out := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while shedding = %d, want 503", resp.StatusCode)
	}
	if out["reason"] != "shed" {
		t.Errorf("reason = %v, want shed", out["reason"])
	}
	srv.res.shedOn.Store(false)
	resp, _ = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after shed cleared = %d, want 200", resp.StatusCode)
	}
}

func TestGenerationHeaderOnEstimates(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = high"}`)
	gen, _ := out["generation"].(float64)
	if gen < 1 {
		t.Fatalf("generation = %v, want >= 1", out["generation"])
	}
	if got := resp.Header.Get(GenHeader); got != strconv.Itoa(int(gen)) {
		t.Errorf("%s = %q, want %d", GenHeader, got, int(gen))
	}

	bresp, err := http.Post(ts.URL+"/v1/estimate/batch", "application/json",
		bytes.NewReader([]byte(`{"queries":["FROM People p WHERE p.Income = high"]}`)))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer bresp.Body.Close()
	if got := bresp.Header.Get(GenHeader); got != strconv.Itoa(int(gen)) {
		t.Errorf("batch %s = %q, want %d", GenHeader, got, int(gen))
	}
}

// fetchSnapshotFrame grabs the framed snapshot plus its generation.
func fetchSnapshotFrame(t *testing.T, base string) ([]byte, int64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/models/fig1/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	gen, err := strconv.ParseInt(resp.Header.Get(GenHeader), 10, 64)
	if err != nil {
		t.Fatalf("snapshot %s header: %v", GenHeader, err)
	}
	return raw, gen
}

func postLoad(t *testing.T, base string, gen string, frame []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/models/fig1/load", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if gen != "" {
		req.Header.Set(GenHeader, gen)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST load: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// rebuildTo drives the model one generation forward, synchronously.
func rebuildTo(t *testing.T, srv *Server) int64 {
	t.Helper()
	m, ok := srv.reg.Get("fig1")
	if !ok {
		t.Fatal("no fig1 model")
	}
	done := make(chan error, 1)
	if !m.Rebuild(func(_ *Snapshot, err error) { done <- err }) {
		t.Fatal("rebuild refused")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rebuild timed out")
	}
	return m.Current().Generation
}

func TestSnapshotRoundTripBetweenReplicas(t *testing.T) {
	srcSrv, src := freshFig1Server(t)
	_, dst := freshFig1Server(t)

	// Advance the source one generation past the destination, fetch its
	// framed snapshot, and load it into the destination — the wire path
	// a rolling rollout drives.
	gen := rebuildTo(t, srcSrv)
	frame, fetchedGen := fetchSnapshotFrame(t, src.URL)
	if fetchedGen != gen {
		t.Fatalf("snapshot generation = %d, want %d", fetchedGen, gen)
	}
	if _, err := store.Payload(frame); err != nil {
		t.Fatalf("fetched frame does not validate: %v", err)
	}

	resp := postLoad(t, dst.URL, strconv.FormatInt(gen, 10), frame)
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode load response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load = %d, want 200 (body %v)", resp.StatusCode, out)
	}
	if out["status"] != "published" {
		t.Errorf("status = %v, want published", out["status"])
	}

	// The destination now serves the adopted generation, and says so.
	eresp, eout := postEstimate(t, dst.URL, `{"query":"FROM People p WHERE p.Income = high"}`)
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after load = %d (body %v)", eresp.StatusCode, eout)
	}
	if g, _ := eout["generation"].(float64); int64(g) != gen {
		t.Errorf("served generation = %v, want %d", eout["generation"], gen)
	}
	est, _ := eout["estimate"].(float64)
	if est <= 0 {
		t.Errorf("estimate through adopted model = %v, want > 0", eout["estimate"])
	}
}

func TestSnapshotLoadRejectsCorruption(t *testing.T) {
	srcSrv, src := freshFig1Server(t)
	_, dst := freshFig1Server(t)
	gen := rebuildTo(t, srcSrv)
	frame, _ := fetchSnapshotFrame(t, src.URL)
	genStr := strconv.FormatInt(gen, 10)
	const incomeQuery = `{"query":"FROM People p WHERE p.Income = high"}`
	_, before := postEstimate(t, dst.URL, incomeQuery)

	// A valid frame around a model whose first Income distribution is ×5:
	// the CRC holds, so only the decoder's CPD checks keep five-fold
	// counts from being served as exact, 422.
	payload, err := store.Payload(frame)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := core.Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	leaf := bad.CPD(bad.AttrVarID("People", "Income")).(*bayesnet.TreeCPD).Root
	for !leaf.IsLeaf() {
		leaf = leaf.Children[0]
	}
	for i := range leaf.Dist {
		leaf.Dist[i] *= 5
	}
	var badPayload bytes.Buffer
	if err := bad.Encode(&badPayload); err != nil {
		t.Fatal(err)
	}
	if resp := postLoad(t, dst.URL, genStr, store.Frame(badPayload.Bytes())); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unnormalized-model load = %d, want 422", resp.StatusCode)
	}

	// A flipped payload bit: the CRC catches it, 422.
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x40
	if resp := postLoad(t, dst.URL, genStr, flipped); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bit-flipped load = %d, want 422", resp.StatusCode)
	}

	// A torn transfer: the frame length check catches it, 422.
	if resp := postLoad(t, dst.URL, genStr, frame[:len(frame)/2]); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("truncated load = %d, want 422", resp.StatusCode)
	}

	// A missing or garbage generation header: 400 before any decode.
	if resp := postLoad(t, dst.URL, "", frame); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("load without generation = %d, want 400", resp.StatusCode)
	}

	// A stale generation (the destination already serves gen 1; offering
	// gen 1 again moves nothing): 409 with the serving generation.
	if resp := postLoad(t, dst.URL, "1", frame); resp.StatusCode != http.StatusConflict {
		t.Errorf("stale-generation load = %d, want 409", resp.StatusCode)
	} else if resp.Header.Get(GenHeader) == "" {
		t.Error("409 lacks the serving generation header")
	}

	// After every rejection the destination still serves generation 1
	// and its estimate.
	_, eout := postEstimate(t, dst.URL, incomeQuery)
	if g, _ := eout["generation"].(float64); int64(g) != 1 {
		t.Errorf("destination generation after rejections = %v, want 1", eout["generation"])
	}
	if eout["estimate"] != before["estimate"] {
		t.Errorf("destination estimate after rejections = %v, want %v", eout["estimate"], before["estimate"])
	}
}

func TestSnapshotStreamTornByFault(t *testing.T) {
	_, src := freshFig1Server(t)
	restore := faults.Set("serve.snapshot.stream", faults.Fault{Err: errors.New("torn"), Times: 1})
	defer restore()

	resp, err := http.Get(src.URL + "/v1/models/fig1/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := store.Payload(raw); err == nil {
		t.Fatal("torn stream validated clean; the fault did not truncate")
	}

	// The fault budget is spent; a re-fetch gets an intact frame.
	frame, _ := fetchSnapshotFrame(t, src.URL)
	if _, err := store.Payload(frame); err != nil {
		t.Fatalf("re-fetched frame does not validate: %v", err)
	}
}

func TestSnapshotConditionalGet(t *testing.T) {
	_, src := freshFig1Server(t)
	resp, err := http.Get(src.URL + "/v1/models/fig1/snapshot?if_newer_than=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("if_newer_than=1 at generation 1 = %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get(GenHeader) != "1" {
		t.Errorf("304 %s = %q, want 1", GenHeader, resp.Header.Get(GenHeader))
	}
}
