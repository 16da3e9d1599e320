package serve

import (
	"container/list"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mutexWaitSeconds reads the runtime's cumulative sync.Mutex/RWMutex (and
// runtime-internal lock) wait time — the observable the lock-free read
// path is asserted against: if a hit ever reacquires a mutex, concurrent
// hammering makes this number move.
func mutexWaitSeconds() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// TestCacheHitZeroAllocs: a warm Do and a Get allocate nothing — the hit
// path is one hash, one atomic table load, and a probe.
func TestCacheHitZeroAllocs(t *testing.T) {
	c := NewCache(64, 4)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, _, err := c.Do(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() {
		v, hit, _, err := c.Do("k7", func() (any, error) { return nil, nil })
		if err != nil || !hit || v != 7 {
			t.Fatalf("Do = %v hit=%v err=%v", v, hit, err)
		}
	}); allocs != 0 {
		t.Errorf("cached Do allocates %v per hit, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if v, ok := c.Get("k3"); !ok || v != 3 {
			t.Fatalf("Get = %v, %v", v, ok)
		}
	}); allocs != 0 {
		t.Errorf("Get allocates %v per hit, want 0", allocs)
	}
}

// TestCacheHitZeroMutexWait hammers warm keys from many goroutines and
// asserts the runtime records (almost) no mutex wait: cache hits must not
// acquire any lock, contended or otherwise. A lock-per-hit implementation
// accumulates orders of magnitude more wait here.
func TestCacheHitZeroMutexWait(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive hammer in -short")
	}
	c := NewCache(256, 8)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("warm-%d", i)
		if _, _, _, err := c.Do(keys[i], func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	before := mutexWaitSeconds()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				key := keys[i&(len(keys)-1)]
				if _, hit, _, _ := c.Do(key, func() (any, error) { return nil, nil }); !hit {
					t.Errorf("warm key %q missed", key)
					return
				}
			}
		}(g)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	delta := mutexWaitSeconds() - before

	// Budget: runtime-internal locks (GC, scheduler) may register a hair
	// of wait; a mutex on the hit path would register hundreds of ms
	// across 8 goroutines × 200ms.
	if delta > 0.010 {
		t.Errorf("cache-hit hammer accumulated %.3fs of mutex wait, want ~0 (lock on the hit path?)", delta)
	}
	t.Logf("mutex wait over %d×200ms hammer: %.6fs", workers, delta)
}

// TestEstimateCachedHitZeroMutexWait asserts the whole service-level hit
// path — registry lookup, snapshot load, cache probe, metrics, SLO,
// journal sampling decision — acquires no mutex: concurrent cached
// estimates with the journal idle record (almost) no runtime mutex wait.
func TestEstimateCachedHitZeroMutexWait(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive hammer in -short")
	}
	srv := NewServer(Config{
		Registry:      fig1Registry(t),
		SlowThreshold: time.Hour, // journal idle: fast successes never kept
		// Error-level logger: the per-request access line is skipped at
		// the Enabled check, before the handler's output mutex.
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	const body = `{"query":"FROM People p WHERE p.Income = high"}`
	warm := httptest.NewRecorder()
	srv.handleEstimate(warm, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
	if warm.Code != 200 {
		t.Fatalf("warmup = %d: %s", warm.Code, warm.Body)
	}

	const workers = 8
	before := mutexWaitSeconds()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rr := httptest.NewRecorder()
				srv.handleEstimate(rr, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
				if rr.Code != 200 {
					t.Errorf("cached hit = %d", rr.Code)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	delta := mutexWaitSeconds() - before

	// The request path allocates (JSON in/out), so GC's runtime-internal
	// locks may register more here than in the bare cache hammer; a real
	// mutex acquired per request still clears this bar by orders of
	// magnitude under 8-way load.
	if delta > 0.050 {
		t.Errorf("cached-hit estimates accumulated %.3fs of mutex wait, want ~0 (lock on the hit path?)", delta)
	}
	t.Logf("mutex wait over %d×200ms estimate hammer: %.6fs", workers, delta)
}

// hitPathAllocs pins the allocations of one warm cached estimate through
// Server.Handler, the client's httptest request and recorder included, at
// the count measured once the request deadline ran in the request's own
// goroutine and hits answered from the pre-rendered reply. A per-request
// goroutine hand-off or a per-hit re-encode adds allocations and fails
// TestEstimateHitPathAllocs.
const hitPathAllocs = 87

// TestEstimateHitPathAllocs guards the whole served hit path: routing,
// deadline, logging, decode, parse, cache probe, reply, and bookkeeping.
func TestEstimateHitPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		// The race runtime drops sync.Pool items at random and moves some
		// values to the heap, so its counts are higher and vary.
		t.Skip("allocation count is pinned for non-race builds")
	}
	h := NewServer(Config{
		Registry:      fig1Registry(t),
		SlowThreshold: time.Hour, // journal idle: fast successes never kept
		// No controller goroutine: AllocsPerRun counts process-wide mallocs.
		DisableBrownout: true,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	const body = `{"query":"FROM People p WHERE p.Income = high"}`
	serve := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
		return rr
	}
	if rr := serve(); rr.Code != 200 {
		t.Fatalf("warmup = %d: %s", rr.Code, rr.Body)
	}
	// Best of three: a real extra allocation shows up in every window; GC
	// or scheduler noise only inflates some.
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		best = min(best, testing.AllocsPerRun(200, func() {
			if rr := serve(); rr.Code != 200 || !strings.Contains(rr.Body.String(), `"hit": true`) {
				t.Fatalf("cached hit = %d: %s", rr.Code, rr.Body)
			}
		}))
	}
	if best > hitPathAllocs {
		t.Errorf("cached hit through Handler allocates %v per request, want <= %d", best, hitPathAllocs)
	}
	t.Logf("cached hit through Handler: %v allocs per request (pinned at %d)", best, hitPathAllocs)
}

// refLRU is the old eviction policy (exact move-to-front LRU), kept as
// the differential baseline for the CLOCK cache.
type refLRU struct {
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

func newRefLRU(cap int) *refLRU {
	return &refLRU{cap: cap, ll: list.New(), m: make(map[string]*list.Element)}
}

func (l *refLRU) access(key string) (hit bool) {
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return true
	}
	l.m[key] = l.ll.PushFront(key)
	if l.ll.Len() > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.m, back.Value.(string))
	}
	return false
}

// TestCacheClockVsLRUHitRate replays identical randomized workloads
// through the CLOCK cache and an exact LRU and requires the hit rates to
// stay within tolerance: the lock-free eviction approximates LRU, it must
// not degrade into FIFO-thrash.
func TestCacheClockVsLRUHitRate(t *testing.T) {
	const (
		capacity = 512
		keys     = 4096
		ops      = 100000
	)
	for _, tc := range []struct {
		name string
		s    float64 // zipf skew
	}{
		{"zipf-1.1", 1.1},
		{"zipf-1.5", 1.5},
		{"uniform", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			next := func() string { return fmt.Sprintf("k%d", rng.Intn(keys)) }
			if tc.s > 0 {
				zipf := rand.NewZipf(rng, tc.s, 1, keys-1)
				next = func() string { return fmt.Sprintf("k%d", zipf.Uint64()) }
			}

			clock := NewCache(capacity, 1) // one shard: capacity is exact
			lru := newRefLRU(capacity)
			var clockHits, lruHits int
			for i := 0; i < ops; i++ {
				key := next()
				if _, hit, _, err := clock.Do(key, func() (any, error) { return key, nil }); err != nil {
					t.Fatal(err)
				} else if hit {
					clockHits++
				}
				if lru.access(key) {
					lruHits++
				}
			}
			cr := float64(clockHits) / ops
			lr := float64(lruHits) / ops
			t.Logf("hit rate: clock %.4f, lru %.4f", cr, lr)
			if cr < lr-0.05 {
				t.Errorf("CLOCK hit rate %.4f more than 5pp below LRU %.4f", cr, lr)
			}
			if n := clock.Len(); n > capacity {
				t.Errorf("Len() = %d, above capacity %d", n, capacity)
			}
		})
	}
}

// TestCacheResizeKeepsServing exercises the brownout knob against the
// open-addressed table: shrink under concurrent hits, then grow back, and
// require correct values and bounded occupancy throughout.
func TestCacheResizeKeepsServing(t *testing.T) {
	c := NewCache(256, 4)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Do(key, func() (any, error) { return key, nil })
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				key := fmt.Sprintf("k%d", i%256)
				v, _, _, err := c.Do(key, func() (any, error) { return key, nil })
				if err != nil || v != key {
					t.Errorf("Do(%q) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		c.Resize(32)
		c.Resize(256)
	}
	stop.Store(true)
	wg.Wait()
	c.Resize(16)
	if n := c.Len(); n > 16 {
		t.Errorf("Len() = %d after Resize(16), want <= 16", n)
	}
	c.Resize(4096)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("g%d", i)
		c.Do(key, func() (any, error) { return key, nil })
	}
	if n := c.Len(); n > 4096 {
		t.Errorf("Len() = %d after growing, want <= 4096", n)
	}
}
