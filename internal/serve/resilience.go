package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"prmsel/internal/obs"
	"prmsel/internal/resilience"
)

// ErrShed means the brownout controller is in its shed state: the server
// answers cache hits only, and every cache-missing estimate is refused
// with a structured 503 until pressure clears.
var ErrShed = errors.New("serve: shedding load under brownout")

// Tier ceilings the brownout controller imposes on the degradation
// chain. Normal operation leaves the full chain (exact first); each
// brownout level lowers the most expensive tier a request may use.
const (
	tierCeilExact  int32 = iota // full chain, exact allowed
	tierCeilApprox              // skip exact elimination, sample instead
	tierCeilAVI                 // skip inference entirely, AVI baseline only
)

// setRetryAfter advertises a backoff on a protective 429/503, floored at
// one second (Retry-After is whole seconds). The logging middleware also
// keys off this header to keep protective refusals out of the SLO error
// budget.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// resilienceState is the server's adaptive self-protection loop: the
// brownout controller plus the circuit breakers around the durable
// store and the ingest refit path. The resilience package supplies the
// mechanisms; this file owns what each state actually does to the
// server's knobs.
type resilienceState struct {
	s    *Server
	ctrl *resilience.Controller

	// persistBr guards snapshot saves, walBr the ingest WAL append
	// path, refitBr incremental refits.
	persistBr *resilience.Breaker
	walBr     *resilience.Breaker
	refitBr   *resilience.Breaker

	tierCeil  atomic.Int32
	shedOn    atomic.Bool
	shedTotal *obs.Counter

	transitions  *obs.CounterVec
	breakerOpens *obs.CounterVec
	breakerState *obs.GaugeVec

	// memStats is reused across ticks so the memory signal allocates
	// nothing; only the controller goroutine touches it.
	memStats runtime.MemStats
}

// newResilience wires the controller, breakers, metrics, and registry
// hooks onto the server. Called once from NewServer (when brownout is
// enabled); start launches the tick loop afterwards.
func newResilience(s *Server) *resilienceState {
	r := &resilienceState{s: s}
	reg := s.metrics.Registry()
	r.shedTotal = reg.Counter("prm_resilience_shed_total",
		"Cache-missing estimates refused while in the shed state.")
	r.transitions = reg.CounterVec("prm_resilience_transitions_total",
		"Brownout controller state changes by destination state.", "to")
	r.breakerOpens = reg.CounterVec("prm_breaker_opens_total",
		"Circuit-breaker trips (transitions to open).", "breaker")
	r.breakerState = reg.GaugeVec("prm_breaker_state",
		"Circuit-breaker state (0 closed, 1 open, 2 half-open).", "breaker")
	reg.GaugeFunc("prm_resilience_state",
		"Brownout state (0 normal, 1 brownout1, 2 brownout2, 3 shed).",
		func() float64 { return float64(r.ctrl.State()) })
	reg.GaugeFunc("prm_resilience_pressure",
		"Brownout pressure: max normalized load signal (>=1 enters brownout).",
		func() float64 { return r.ctrl.PressureValue() })

	mkBreaker := func(name string) *resilience.Breaker {
		return resilience.NewBreaker(resilience.BreakerConfig{
			Name: name,
			OnTransition: func(from, to resilience.BreakerState) {
				if to == resilience.BreakerOpen {
					r.breakerOpens.With(name).Inc()
				}
				s.logf("serve: breaker %s: %s -> %s", name, from, to)
				r.journalNote(fmt.Sprintf("breaker %s: %s -> %s", name, from, to))
			},
		})
	}
	r.persistBr = mkBreaker("store.persist")
	r.walBr = mkBreaker("wal.append")
	r.refitBr = mkBreaker("ingest.refit")

	tick := s.cfg.BrownoutTick
	if tick <= 0 {
		tick = time.Second
	}
	r.ctrl = resilience.NewController(resilience.ControllerConfig{
		Tick:   tick,
		Source: r.signals,
		OnTransition: func(from, to resilience.State, pressure float64) {
			r.apply(to)
			r.transitions.With(to.String()).Inc()
			s.logf("serve: brownout %s -> %s (pressure %.2f)", from, to, pressure)
			r.journalNote(fmt.Sprintf("brownout %s -> %s (pressure %.2f)", from, to, pressure))
		},
	})

	// Persist failures happen in registry rebuild goroutines; the refit
	// outcome hook likewise. Route both into their breakers, keeping the
	// metrics observation NewServer already installed.
	s.reg.setPersistBreaker(r.persistBr)
	s.reg.setRefitGate(func() bool { return r.refitBr.Allow() == nil })
	s.reg.setOnRefit(func(d time.Duration, err error) {
		s.metrics.ObserveRefit(d, err)
		r.refitBr.Record(err)
	})
	return r
}

func (r *resilienceState) start() { r.ctrl.Start() }

// signals samples the load signals the controller normalizes into its
// pressure scalar. Runs every tick on the controller goroutine and must
// not allocate (background ticks would otherwise perturb the serve
// layer's AllocsPerRun guards).
func (r *resilienceState) signals() resilience.Signals {
	var sig resilience.Signals
	sig.Burn = r.s.slo.Burn(sloLatency)
	if be := r.s.slo.Burn(sloErrors); be > sig.Burn {
		sig.Burn = be
	}
	if r.s.adm != nil {
		used, queued, capacity := r.s.adm.snapshot()
		if r.s.cfg.MaxQueued > 0 {
			sig.QueueFrac = float64(queued) / float64(r.s.cfg.MaxQueued)
		}
		if capacity > 0 {
			sig.AdmitFrac = float64(used) / float64(capacity)
		}
	}
	if r.s.cfg.MemSoftLimit > 0 {
		runtime.ReadMemStats(&r.memStats)
		sig.MemFrac = float64(r.memStats.HeapAlloc) / float64(r.s.cfg.MemSoftLimit)
	}
	return sig
}

// apply actuates one brownout state onto the server's knobs. Runs on the
// controller goroutine, only on transitions, so it may allocate. Every
// state sets every knob absolutely (no deltas), so any transition —
// including skipping levels on escalation — lands on a consistent
// configuration.
func (r *resilienceState) apply(to resilience.State) {
	cfg := r.s.cfg
	switch to {
	case resilience.Normal:
		r.tierCeil.Store(tierCeilExact)
		r.shedOn.Store(false)
		r.s.cache.Resize(cfg.CacheCapacity)
		r.setAdmitCapacity(int64(cfg.MaxConcurrent))
		r.s.journal.SetSampleEvery(cfg.JournalSampleEvery)
	case resilience.Brownout1:
		// Cheapest relief first: stop burning CPU on exact elimination;
		// sample instead. Capacity and caches stay untouched.
		r.tierCeil.Store(tierCeilApprox)
		r.shedOn.Store(false)
		r.s.cache.Resize(cfg.CacheCapacity)
		r.setAdmitCapacity(int64(cfg.MaxConcurrent))
		r.s.journal.SetSampleEvery(scaleSample(cfg.JournalSampleEvery, 4))
	case resilience.Brownout2:
		// Inference off entirely (AVI baseline answers), shrink the
		// answer cache, and tighten admission.
		r.tierCeil.Store(tierCeilAVI)
		r.shedOn.Store(false)
		r.s.cache.Resize(cfg.CacheCapacity / 2)
		r.setAdmitCapacity(int64(cfg.MaxConcurrent) * 3 / 4)
		r.s.journal.SetSampleEvery(scaleSample(cfg.JournalSampleEvery, 16))
	case resilience.Shed:
		// Survival mode: cache hits only; everything else is refused
		// fast with Retry-After.
		r.tierCeil.Store(tierCeilAVI)
		r.shedOn.Store(true)
		r.s.cache.Resize(cfg.CacheCapacity / 4)
		r.setAdmitCapacity(int64(cfg.MaxConcurrent) / 2)
		r.s.journal.SetSampleEvery(0) // errors and degraded answers are still always kept
	}
}

// scaleSample widens a 1-in-N journal sampling rate by k (0 stays 0:
// ordinary successes were never sampled to begin with).
func scaleSample(n, k int) int {
	if n <= 0 {
		return 0
	}
	return n * k
}

func (r *resilienceState) setAdmitCapacity(c int64) {
	if r.s.adm != nil {
		r.s.adm.setCapacity(c)
	}
}

// shedding reports whether cache-missing estimates should be refused.
func (r *resilienceState) shedding() bool { return r.shedOn.Load() }

// noteShed counts one shed refusal.
func (r *resilienceState) noteShed() { r.shedTotal.Inc() }

// retryAfter is the backoff advertised on shed 503s.
func (r *resilienceState) retryAfter() time.Duration { return r.ctrl.RetryAfter() }

// tierCeiling returns the brownout tier ceiling (tierCeilExact — the
// full chain — when the resilience loop is disabled).
func (s *Server) tierCeiling() int32 {
	if s.res == nil {
		return tierCeilExact
	}
	return s.res.tierCeil.Load()
}

// health renders the resilience block of /healthz.
func (r *resilienceState) health() map[string]any {
	st := r.ctrl.Status()
	return map[string]any{
		"state":         st.State,
		"pressure":      st.Pressure,
		"since":         st.Since,
		"transitions":   st.Transitions,
		"shed_requests": r.shedTotal.Value(),
		"breakers": []resilience.BreakerStatus{
			r.persistBr.Status(),
			r.walBr.Status(),
			r.refitBr.Status(),
		},
	}
}

// syncGauges projects breaker states onto the registry; called by the
// scrape handler so /metrics is always current.
func (r *resilienceState) syncGauges() {
	for _, b := range []*resilience.Breaker{r.persistBr, r.walBr, r.refitBr} {
		r.breakerState.With(b.Name()).Set(float64(b.State()))
	}
}

// journalNote records one resilience state change as a wide event, outside
// sampling — transitions are rare and always worth keeping.
func (r *resilienceState) journalNote(msg string) {
	id := r.s.journal.NextID()
	r.s.journal.Record(&obs.Event{
		ID:      id,
		TraceID: obs.TraceID(id),
		Time:    time.Now(),
		Kind:    "resilience",
		Error:   msg,
		Reason:  "resilience",
	})
}
