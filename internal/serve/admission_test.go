package serve

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prmsel/internal/baselines"
	"prmsel/internal/query"
)

func TestAdmissionImmediateGrant(t *testing.T) {
	a := newAdmission(4, 2, time.Second)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		if err := a.acquire(done, 1); err != nil {
			t.Fatalf("acquire %d = %v", i, err)
		}
	}
	if used, queued, _ := a.snapshot(); used != 4 || queued != 0 {
		t.Fatalf("snapshot = (%d, %d), want (4, 0)", used, queued)
	}
	a.release(4)
	if used, _, _ := a.snapshot(); used != 0 {
		t.Fatalf("used after release = %d, want 0", used)
	}
}

func TestAdmissionQueueFullAndTimeout(t *testing.T) {
	a := newAdmission(1, 1, 30*time.Millisecond)
	done := make(chan struct{})
	if err := a.acquire(done, 1); err != nil {
		t.Fatal(err)
	}
	// Second caller queues and eventually times out.
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(done, 1) }()
	waitFor(t, "second caller to queue", func() bool { _, q, _ := a.snapshot(); return q == 1 })
	// Third caller finds the queue full.
	if err := a.acquire(done, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire = %v, want ErrQueueFull", err)
	}
	if err := <-errc; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued acquire = %v, want ErrQueueTimeout", err)
	}
	a.release(1)
}

func TestAdmissionFIFOGrantOnRelease(t *testing.T) {
	a := newAdmission(1, 4, time.Second)
	done := make(chan struct{})
	if err := a.acquire(done, 1); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(done, 1); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			a.release(1)
		}()
		waitFor(t, "waiter to queue", func() bool { _, q, _ := a.snapshot(); return q == i })
	}
	a.release(1)
	wg.Wait()
	close(order)
	var got []int
	for i := range order {
		got = append(got, i)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("grant order = %v, want FIFO [1 2]", got)
	}
}

func TestAdmissionOversizedWeightClamped(t *testing.T) {
	a := newAdmission(2, 1, time.Second)
	done := make(chan struct{})
	// A weight above capacity must still be admissible alone.
	if err := a.acquire(done, 100); err != nil {
		t.Fatalf("oversized acquire = %v, want grant (clamped)", err)
	}
	a.release(100)
	if used, _, _ := a.snapshot(); used != 0 {
		t.Fatalf("used = %d after clamped release, want 0", used)
	}
}

func TestQueryWeightScalesWithJoins(t *testing.T) {
	single := query.New().Over("p", "Person")
	joined := query.New().Over("u", "Purchase").Over("p", "Person").KeyJoin("u", "Buyer", "p")
	if w := queryWeight(single); w != 1 {
		t.Errorf("single-table weight = %d, want 1", w)
	}
	if ws, wj := queryWeight(single), queryWeight(joined); wj <= ws {
		t.Errorf("join weight %d not above single-table weight %d", wj, ws)
	}
}

// blockingEstimator parks every estimate on a channel so a test can hold an
// admission slot open deterministically.
type blockingEstimator struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func (b *blockingEstimator) Name() string { return b.name }
func (b *blockingEstimator) EstimateCount(q *query.Query) (float64, error) {
	b.started <- struct{}{}
	<-b.release
	return 1, nil
}
func (b *blockingEstimator) StorageBytes() int { return 0 }

// stubRegistry registers a hand-built snapshot under the given name — the
// hook the failure-path tests use to serve estimators the learner would
// never produce (blocking, NaN).
func stubRegistry(t *testing.T, name string, ests []baselines.Estimator) *Registry {
	t.Helper()
	snap := fig1Registry(t).models["fig1"].Current()
	reg := NewRegistry()
	m := &Model{Name: name}
	m.cur.Store(&Snapshot{DB: snap.DB, Estimators: ests, Generation: 1, BuiltAt: time.Now()})
	if err := reg.register(name, m); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestAdmissionRejectionsOverHTTP(t *testing.T) {
	blocker := &blockingEstimator{
		name:    "PRM",
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv := NewServer(Config{
		Registry:      stubRegistry(t, "slow", []baselines.Estimator{blocker}),
		MaxConcurrent: 1,
		MaxQueued:     1,
		QueueTimeout:  50 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Request 1 takes the only slot and parks inside the estimator.
	r1 := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(`{"query":"FROM People p WHERE p.Income = high"}`))
		if err != nil {
			r1 <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r1 <- resp.StatusCode
	}()
	<-blocker.started

	// Request 2 (distinct query, so no singleflight dedup) queues.
	r2 := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(`{"query":"FROM People p WHERE p.Income = low"}`))
		if err != nil {
			r2 <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r2 <- resp.StatusCode
	}()
	waitFor(t, "second request to queue", func() bool { _, q, _ := srv.adm.snapshot(); return q == 1 })

	// Request 3 finds the queue full: immediate 429.
	resp, out := postEstimate(t, ts.URL, `{"query":"FROM People p WHERE p.Income = medium"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429 (body %v)", resp.StatusCode, out)
	}
	if out["reason"] == nil {
		t.Errorf("429 body lacks a reason: %v", out)
	}

	// Request 2 exhausts the queue deadline: 503.
	if code := <-r2; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503", code)
	}

	close(blocker.release)
	if code := <-r1; code != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", code)
	}

	snap := srv.Metrics().Snapshot()
	adm := snap["admission"].(map[string]int64)
	if adm["rejected_429"] != 1 || adm["timeout_503"] != 1 {
		t.Errorf("admission counters = %v, want one 429 and one 503", adm)
	}
}

func TestCacheHitBypassesAdmission(t *testing.T) {
	srv := NewServer(Config{
		Registry:      fig1Registry(t),
		MaxConcurrent: 1,
		MaxQueued:     1,
		QueueTimeout:  time.Second,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"query":"FROM People p WHERE p.Education = advanced"}`
	if resp, out := postEstimate(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("miss: status %d, body %v", resp.StatusCode, out)
	}
	// Wedge the semaphore shut; the cached query must still answer.
	done := make(chan struct{})
	if err := srv.adm.acquire(done, 1); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.release(1)
	resp, out := postEstimate(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit with saturated admission: status %d, body %v", resp.StatusCode, out)
	}
	if cache, ok := out["cache"].(map[string]any); !ok || cache["hit"] != true {
		t.Fatalf("expected a cache hit, got %v", out["cache"])
	}
}
