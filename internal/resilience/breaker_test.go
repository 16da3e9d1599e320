package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerConsecutiveFailuresTrip(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Name: "t", ConsecutiveFailures: 3, Now: clk.now})
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Record(boom)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Record(boom)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	err := b.Allow()
	if err == nil {
		t.Fatal("open breaker allowed a call")
	}
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("refusal does not match ErrOpen: %v", err)
	}
	var oe *OpenError
	if !errors.As(err, &oe) || oe.RetryAfter < time.Second {
		t.Fatalf("refusal = %#v, want *OpenError with RetryAfter >= 1s", err)
	}
	// A success interleaved with failures must reset the streak.
	clk.advance(time.Hour)
	b2 := NewBreaker(BreakerConfig{Name: "t2", ConsecutiveFailures: 3, Now: clk.now})
	b2.Record(boom)
	b2.Record(boom)
	b2.Record(nil)
	b2.Record(boom)
	b2.Record(boom)
	if got := b2.State(); got != BreakerClosed {
		t.Fatalf("state with interleaved success = %v, want closed", got)
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Name:                "t",
		ConsecutiveFailures: 1000, // keep the streak trip out of the way
		MinSamples:          10,
		Window:              30 * time.Second,
		Now:                 clk.now,
	})
	boom := errors.New("boom")
	// Alternate success/failure: 50% error rate, but below MinSamples no trip.
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			b.Record(boom)
		} else {
			b.Record(nil)
		}
		clk.advance(200 * time.Millisecond)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state below MinSamples = %v, want closed", got)
	}
	b.Record(boom)
	b.Record(nil)
	// 10 samples, 5 bad: rate 0.5 >= 0.5 trips.
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state at 50%% over %d samples = %v, want open", 10, got)
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Name:                "t",
		ConsecutiveFailures: 1,
		Cooldown:            5 * time.Second,
		SuccessesToClose:    2,
		ProbeChance:         1.0, // every half-open call probes: deterministic
		Now:                 clk.now,
	})
	b.Record(errors.New("boom"))
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("open breaker allowed before cooldown")
	}
	clk.advance(5 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after 1 probe success = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after %d probe successes = %v, want closed", 2, got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Name:                "t",
		ConsecutiveFailures: 1,
		Cooldown:            time.Second,
		ProbeChance:         1.0,
		Now:                 clk.now,
	})
	b.Record(errors.New("boom"))
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Record(errors.New("still broken"))
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	st := b.Status()
	if st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	clk := newFakeClock()
	var mu sync.Mutex
	var seq []string
	b := NewBreaker(BreakerConfig{
		Name:                "t",
		ConsecutiveFailures: 1,
		Cooldown:            time.Second,
		SuccessesToClose:    1,
		ProbeChance:         1.0,
		Now:                 clk.now,
		OnTransition: func(from, to BreakerState) {
			mu.Lock()
			seq = append(seq, from.String()+">"+to.String())
			mu.Unlock()
		},
	})
	b.Record(errors.New("boom"))
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Record(nil)
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	mu.Lock()
	defer mu.Unlock()
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seq, want)
		}
	}
}

// TestBreakerConcurrent hammers Allow/Record/Status from many goroutines
// under -race; the assertion is simply that invariants hold and nothing
// races or deadlocks.
func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(BreakerConfig{
		Name:                "t",
		ConsecutiveFailures: 5,
		Cooldown:            time.Millisecond,
		Window:              2 * time.Second,
	})
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := b.Allow(); err != nil {
					var oe *OpenError
					if !errors.As(err, &oe) {
						t.Errorf("refusal is not *OpenError: %v", err)
						return
					}
					continue
				}
				if (g+i)%3 == 0 {
					b.Record(boom)
				} else {
					b.Record(nil)
				}
				if i%100 == 0 {
					_ = b.Status()
					_ = b.State()
				}
			}
		}(g)
	}
	wg.Wait()
	switch st := b.State(); st {
	case BreakerClosed, BreakerOpen, BreakerHalfOpen:
	default:
		t.Fatalf("invalid final state %v", st)
	}
}

func TestNilBreakerIsNoop(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatalf("nil breaker refused: %v", err)
	}
	b.Record(errors.New("boom"))
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %v, want closed", got)
	}
	if st := b.Status(); st.Name != "" {
		t.Fatalf("nil breaker status = %+v, want zero", st)
	}
}
