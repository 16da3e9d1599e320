// Package resilience is the server's self-protection layer: a brownout
// controller that walks the service through explicit degradation states
// when its SLO burn, queue depth, or memory pressure say it is unhealthy,
// and circuit breakers that make persistently failing dependencies (a
// broken fsync, a dead WAL) fail fast instead of queueing work behind
// them. The package is deliberately mechanism-only: it reads signals and
// reports states; the serve layer owns what each state actually does.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes every call through, counting outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a random fraction of calls probe the
	// dependency; a probe failure reopens, enough successes close.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ErrOpen is the sentinel every breaker refusal matches via errors.Is,
// so callers can classify without knowing the breaker by name.
var ErrOpen = errors.New("resilience: circuit breaker open")

// OpenError is a refusal from Allow: the breaker is open (or half-open
// and this call lost the probe draw). RetryAfter is how long the caller
// should tell its client to back off — the remaining cooldown, floored
// at one second.
type OpenError struct {
	Name       string
	RetryAfter time.Duration
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: %s circuit open; retry in %v", e.Name, e.RetryAfter.Round(time.Second))
}

// Is makes errors.Is(err, ErrOpen) match every OpenError.
func (e *OpenError) Is(target error) bool { return target == ErrOpen }

// tripErrorRate trips a closed breaker once the rolling window's failure
// fraction reaches it, with at least MinSamples outcomes in the window.
const tripErrorRate = 0.5

// BreakerConfig tunes one breaker. The zero value of every field gets a
// sensible default from NewBreaker.
type BreakerConfig struct {
	// Name labels the breaker in errors, metrics, and health.
	Name string
	// ConsecutiveFailures trips the breaker after this many failures in a
	// row (default 5).
	ConsecutiveFailures int
	// MinSamples is the minimum window population before the error-rate
	// trip (tripErrorRate) can fire (default 20) — a single failure out
	// of two calls is not a statement about the dependency.
	MinSamples int
	// Window is the rolling error-rate window (default 30s).
	Window time.Duration
	// Cooldown is how long an open breaker refuses before moving to
	// half-open (default 5s).
	Cooldown time.Duration
	// SuccessesToClose closes a half-open breaker after this many probe
	// successes (default 2).
	SuccessesToClose int
	// ProbeChance is the fraction of half-open calls admitted as probes
	// (default 0.25); the rest are refused, so a recovering dependency is
	// not instantly re-saturated by the backlog.
	ProbeChance float64
	// Now overrides the clock (tests).
	Now func() time.Time
	// OnTransition, when non-nil, runs (under no breaker lock being
	// needed by the callee) on every state change.
	OnTransition func(from, to BreakerState)
}

// breakerCell is one second of outcome history.
type breakerCell struct {
	epoch     int64
	good, bad int64
}

// Breaker is a closed/open/half-open circuit breaker with both a
// consecutive-failure trip and a rolling-error-rate trip, and
// probabilistic half-open probes. All methods are safe for concurrent
// use; a nil *Breaker allows everything and records nothing.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	consec   int       // consecutive failures while closed
	probeOK  int       // probe successes while half-open
	openedAt time.Time // when the breaker last opened
	cells    []breakerCell
	opens    int64
	rng      *rand.Rand
}

// NewBreaker builds a breaker from cfg with defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Name == "" {
		cfg.Name = "breaker"
	}
	if cfg.ConsecutiveFailures <= 0 {
		cfg.ConsecutiveFailures = 5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 20
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.SuccessesToClose <= 0 {
		cfg.SuccessesToClose = 2
	}
	if cfg.ProbeChance <= 0 {
		cfg.ProbeChance = 0.25
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	secs := int64(cfg.Window / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &Breaker{
		cfg:   cfg,
		cells: make([]breakerCell, secs+1),
		rng:   rand.New(rand.NewSource(1)), // deterministic probe draws
	}
}

// Allow reports whether a call may proceed. Closed always allows. Open
// refuses with an *OpenError until the cooldown elapses, at which point
// the breaker moves to half-open. Half-open admits a ProbeChance
// fraction of calls (the probes — their Record outcome decides the
// breaker's fate) and refuses the rest.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if b.state == BreakerOpen {
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return &OpenError{Name: b.cfg.Name, RetryAfter: b.retryAfterLocked(now)}
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probeOK = 0
	}
	if b.state == BreakerHalfOpen {
		if b.rng.Float64() < b.cfg.ProbeChance {
			return nil // this call is a probe
		}
		return &OpenError{Name: b.cfg.Name, RetryAfter: time.Second}
	}
	return nil
}

// Record feeds one call outcome (err != nil is a failure). While closed
// it updates the trip conditions; while half-open it decides between
// reopening (any failure) and closing (SuccessesToClose successes);
// while open it is ignored — stragglers from before the trip carry no
// new information.
func (b *Breaker) Record(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	fail := err != nil
	switch b.state {
	case BreakerOpen:
		return
	case BreakerHalfOpen:
		if fail {
			b.openLocked(now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.SuccessesToClose {
			b.setStateLocked(BreakerClosed)
			b.consec = 0
			b.resetWindowLocked()
		}
		return
	}
	// Closed: window bookkeeping plus both trip conditions.
	c := b.cellLocked(now)
	if fail {
		c.bad++
		b.consec++
	} else {
		c.good++
		b.consec = 0
	}
	if b.consec >= b.cfg.ConsecutiveFailures {
		b.openLocked(now)
		return
	}
	good, bad := b.windowLocked(now)
	if total := good + bad; total >= int64(b.cfg.MinSamples) &&
		float64(bad)/float64(total) >= tripErrorRate {
		b.openLocked(now)
	}
}

// cellLocked returns the ring cell for the current second, resetting it
// when the second is new.
func (b *Breaker) cellLocked(now time.Time) *breakerCell {
	sec := now.Unix()
	c := &b.cells[sec%int64(len(b.cells))]
	if c.epoch != sec {
		c.epoch, c.good, c.bad = sec, 0, 0
	}
	return c
}

// windowLocked sums outcomes over the rolling window.
func (b *Breaker) windowLocked(now time.Time) (good, bad int64) {
	sec := now.Unix()
	span := int64(len(b.cells)) - 1
	for d := int64(0); d < span; d++ {
		c := &b.cells[(sec-d)%int64(len(b.cells))]
		if c.epoch == sec-d {
			good += c.good
			bad += c.bad
		}
	}
	return good, bad
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.cells {
		b.cells[i] = breakerCell{}
	}
}

func (b *Breaker) openLocked(now time.Time) {
	b.openedAt = now
	b.probeOK = 0
	b.consec = 0
	b.opens++
	b.setStateLocked(BreakerOpen)
}

func (b *Breaker) setStateLocked(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

func (b *Breaker) retryAfterLocked(now time.Time) time.Duration {
	d := b.cfg.Cooldown - now.Sub(b.openedAt)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Name returns the breaker's label ("" on nil).
func (b *Breaker) Name() string {
	if b == nil {
		return ""
	}
	return b.cfg.Name
}

// State returns the current state (BreakerClosed on nil).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStatus is one breaker's health snapshot.
type BreakerStatus struct {
	Name                string  `json:"name"`
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutive_failures,omitempty"`
	WindowGood          int64   `json:"window_good"`
	WindowBad           int64   `json:"window_bad"`
	Opens               int64   `json:"opens"`
	RetryAfterSeconds   float64 `json:"retry_after_seconds,omitempty"`
}

// Status snapshots the breaker for health output (zero value on nil).
func (b *Breaker) Status() BreakerStatus {
	if b == nil {
		return BreakerStatus{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	good, bad := b.windowLocked(now)
	st := BreakerStatus{
		Name:                b.cfg.Name,
		State:               b.state.String(),
		ConsecutiveFailures: b.consec,
		WindowGood:          good,
		WindowBad:           bad,
		Opens:               b.opens,
	}
	if b.state == BreakerOpen {
		st.RetryAfterSeconds = b.retryAfterLocked(now).Seconds()
	}
	return st
}
