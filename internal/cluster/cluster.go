package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prmsel/internal/faults"
	"prmsel/internal/obs"
	"prmsel/internal/resilience"
)

// ReplicaState is the gate's view of one replica, driven by the health
// loop's /readyz polls.
type ReplicaState int32

const (
	// StateUnknown means no health check has completed yet.
	StateUnknown ReplicaState = iota
	// StateDown means health checks are failing at the transport level
	// (connection refused, timeout): the process is gone or unreachable.
	StateDown
	// StateNotReady means the replica answers /readyz with 503 (cold
	// start publishing, brownout shed).
	StateNotReady
	// StateDraining means the replica reports it is shutting down; it
	// still finishes in-flight work but must get nothing new.
	StateDraining
	// StateHealthy means the replica is ready for traffic.
	StateHealthy
)

func (s ReplicaState) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateNotReady:
		return "not_ready"
	case StateDraining:
		return "draining"
	case StateHealthy:
		return "healthy"
	}
	return "unknown"
}

// Replica is one prmserved instance the gate routes to.
type Replica struct {
	// Addr is the replica's base URL (http://host:port).
	Addr string

	state   atomic.Int32
	drained atomic.Bool // operator drain override via the gate API
	br      *resilience.Breaker

	mu          sync.Mutex
	gens        map[string]int64 // model -> serving generation, from /readyz
	reason      string           // last not-ready reason
	lastChecked time.Time
	consecFail  int
	consecOK    int
}

// State returns the replica's health-loop state.
func (r *Replica) State() ReplicaState { return ReplicaState(r.state.Load()) }

// Drained reports the operator drain override.
func (r *Replica) Drained() bool { return r.drained.Load() }

// Generation returns the replica's last-reported serving generation for
// the model (0 when unknown).
func (r *Replica) Generation(model string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gens[model]
}

// setGeneration records a generation learned outside the health loop
// (a successful snapshot load), so rollout does not wait a full health
// interval to see its own effect.
func (r *Replica) setGeneration(model string, gen int64) {
	r.mu.Lock()
	if r.gens == nil {
		r.gens = make(map[string]int64)
	}
	if gen > r.gens[model] {
		r.gens[model] = gen
	}
	r.mu.Unlock()
}

// Config tunes a Gate. Every zero field gets a default from NewGate.
type Config struct {
	// Replicas are the prmserved base URLs; required, at least one.
	Replicas []string
	// Client is the forwarding transport (default: http.Client with a
	// 10s timeout).
	Client *http.Client
	// HealthInterval is the /readyz poll period (default 1s). The ring
	// converges within one interval of a replica dying — the acceptance
	// bar for failover.
	HealthInterval time.Duration
	// HealthTimeout bounds one health check (default: HealthInterval).
	HealthTimeout time.Duration
	// DownAfter is how many consecutive failed checks mark a replica
	// down (default 1: one missed poll and it is out of the ring).
	DownAfter int
	// UpAfter is how many consecutive passing checks bring a replica
	// back (default 1).
	UpAfter int
	// VNodes is the consistent-hash ring's virtual-node count per
	// replica (default 64).
	VNodes int
	// MaxAttempts bounds total forwarding tries per idempotent request,
	// counting hedges (default 3). Non-idempotent requests always get
	// exactly one attempt.
	MaxAttempts int
	// RetryBackoff is the pause before re-forwarding after a failed
	// attempt, jittered ±50% (default 25ms). Protective pushback
	// (429/503 + Retry-After) skips the backoff — the next replica is
	// not the one asking for distance.
	RetryBackoff time.Duration
	// HedgeAfter, when positive, launches a second attempt at the next
	// ring candidate if the first has not answered within this delay —
	// tail-latency insurance for idempotent estimates (default 0: off).
	HedgeAfter time.Duration
	// Quorum is how many replicas must serve a generation before a
	// rollout promotes it (default: majority of configured replicas).
	Quorum int
	// MaxBodyBytes bounds forwarded request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxRespBytes bounds a buffered replica response (default 8 MiB).
	MaxRespBytes int64
	// MaxSnapshotBytes bounds a fetched model snapshot (default 64 MiB).
	MaxSnapshotBytes int64
	// FetchRetries is how many times a rollout re-fetches a snapshot
	// whose frame fails validation (default 3).
	FetchRetries int
	// BreakerCooldown is each replica breaker's open period (default 2s).
	BreakerCooldown time.Duration
	// Metrics receives the prm_gate_* series (default: a fresh registry).
	Metrics *obs.Registry
	// Logf logs gate events; log.Printf when nil.
	Logf func(format string, args ...any)
	// Seed drives retry jitter (0 seeds from the clock).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = c.HealthInterval
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 1
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 1
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Quorum <= 0 {
		c.Quorum = len(c.Replicas)/2 + 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxRespBytes <= 0 {
		c.MaxRespBytes = 8 << 20
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 64 << 20
	}
	if c.FetchRetries <= 0 {
		c.FetchRetries = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// Gate is the cluster routing gateway.
type Gate struct {
	cfg      Config
	client   *http.Client
	replicas []*Replica
	byAddr   map[string]*Replica
	ring     atomic.Pointer[Ring]
	// ringMu orders each change to a replica's state or drain flag after
	// the ring that reflects it (see publishRing).
	ringMu   sync.Mutex
	draining atomic.Bool
	logf     func(format string, args ...any)

	mu       sync.Mutex
	promoted map[string]int64 // model -> promoted generation (routing floor)
	rollouts map[string]*RolloutStatus
	rng      *rand.Rand

	stopc     chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	m gateMetrics
}

type gateMetrics struct {
	requests     *obs.CounterVec // outcome: ok | protective | error | no_replica
	retries      *obs.Counter
	hedges       *obs.Counter
	refetch      *obs.Counter
	checks       *obs.CounterVec // result: ok | not_ready | down
	replicaState *obs.GaugeVec
	promotedGen  *obs.GaugeVec
	rollouts     *obs.CounterVec // result: done | failed
	latency      *obs.Histogram
}

// NewGate builds a gate over cfg.Replicas. Call Start to run the first
// health sweep (synchronously, so the ring is populated on return) and
// launch the background health loop.
func NewGate(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica is required")
	}
	g := &Gate{
		cfg:      cfg,
		client:   cfg.Client,
		byAddr:   make(map[string]*Replica, len(cfg.Replicas)),
		promoted: make(map[string]int64),
		rollouts: make(map[string]*RolloutStatus),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stopc:    make(chan struct{}),
		logf:     cfg.Logf,
	}
	for _, addr := range cfg.Replicas {
		if _, dup := g.byAddr[addr]; dup {
			return nil, fmt.Errorf("cluster: replica %s listed twice", addr)
		}
		rep := &Replica{Addr: addr}
		rep.br = resilience.NewBreaker(resilience.BreakerConfig{
			Name:                "replica:" + addr,
			ConsecutiveFailures: 3,
			Cooldown:            cfg.BreakerCooldown,
			Seed:                1,
			OnTransition: func(from, to resilience.BreakerState) {
				g.logf("cluster: breaker %s: %s -> %s", addr, from, to)
			},
		})
		g.replicas = append(g.replicas, rep)
		g.byAddr[addr] = rep
	}
	g.ring.Store(NewRing(nil, cfg.VNodes))

	reg := cfg.Metrics
	g.m = gateMetrics{
		requests: reg.CounterVec("prm_gate_requests_total",
			"Forwarded requests by outcome (ok, protective, error, no_replica).", "outcome"),
		retries: reg.Counter("prm_gate_retries_total",
			"Forwarding attempts beyond each request's first."),
		hedges: reg.Counter("prm_gate_hedges_total",
			"Hedge attempts launched for slow idempotent requests."),
		refetch: reg.Counter("prm_gate_snapshot_refetch_total",
			"Snapshot fetches repeated after frame validation failed (torn stream, bit flip)."),
		checks: reg.CounterVec("prm_gate_health_checks_total",
			"Health-check outcomes by result (ok, not_ready, down).", "result"),
		replicaState: reg.GaugeVec("prm_gate_replica_state",
			"Replica state (0 unknown, 1 down, 2 not_ready, 3 draining, 4 healthy).", "replica"),
		promotedGen: reg.GaugeVec("prm_gate_promoted_generation",
			"Promoted (routing-floor) generation per model.", "model"),
		rollouts: reg.CounterVec("prm_gate_rollouts_total",
			"Finished rollouts by result (done, failed).", "result"),
		latency: reg.Histogram("prm_gate_request_latency_seconds",
			"End-to-end gate forwarding latency.", gateLatencyBounds),
	}
	reg.GaugeFunc("prm_gate_ring_size",
		"Replicas currently in the routing ring.",
		func() float64 { return float64(g.ring.Load().Len()) })
	return g, nil
}

var gateLatencyBounds = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Start runs one synchronous health sweep (so callers see a populated
// ring) and launches the periodic health loop.
func (g *Gate) Start() {
	g.checkAll()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.checkAll()
			case <-g.stopc:
				return
			}
		}
	}()
}

// StartDrain flips the gate itself to not-ready (its /readyz answers
// 503) while forwarding continues — the gate's own graceful shutdown
// signal to whatever balances across gates.
func (g *Gate) StartDrain() { g.draining.Store(true) }

// Close stops the health loop and waits for background rollouts.
func (g *Gate) Close() {
	g.closeOnce.Do(func() { close(g.stopc) })
	g.wg.Wait()
}

// checkAll polls every replica in parallel; each state change it finds
// republishes the ring (setState).
func (g *Gate) checkAll() {
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			g.checkReplica(rep)
		}(rep)
	}
	wg.Wait()
}

// readyzBody is the replica's /readyz reply shape (mirrors serve's
// handleReadyz; duplicated by design — the gate speaks the wire
// protocol, it does not import the server).
type readyzBody struct {
	Status      string           `json:"status"`
	Reason      string           `json:"reason"`
	Generations map[string]int64 `json:"generations"`
}

func (g *Gate) checkReplica(rep *Replica) {
	if err := faults.Inject("cluster.health"); err != nil {
		g.noteCheck(rep, StateDown, "injected partition: "+err.Error(), nil)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.Addr+"/readyz", nil)
	if err != nil {
		g.noteCheck(rep, StateDown, err.Error(), nil)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.noteCheck(rep, StateDown, err.Error(), nil)
		return
	}
	defer resp.Body.Close()
	var body readyzBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
	switch {
	case resp.StatusCode == http.StatusOK:
		g.noteCheck(rep, StateHealthy, "", body.Generations)
	case resp.StatusCode == http.StatusServiceUnavailable && body.Reason == "draining":
		g.noteCheck(rep, StateDraining, body.Reason, body.Generations)
	case resp.StatusCode == http.StatusServiceUnavailable:
		g.noteCheck(rep, StateNotReady, body.Reason, body.Generations)
	default:
		g.noteCheck(rep, StateDown, fmt.Sprintf("unexpected readyz status %d", resp.StatusCode), nil)
	}
}

// noteCheck folds one health-check outcome into the replica, applying
// the DownAfter/UpAfter hysteresis only across the healthy/down edge —
// an explicit not-ready or draining answer is authoritative
// immediately (the replica said so itself).
func (g *Gate) noteCheck(rep *Replica, observed ReplicaState, reason string, gens map[string]int64) {
	rep.mu.Lock()
	rep.lastChecked = time.Now()
	rep.reason = reason
	for m, gen := range gens {
		if rep.gens == nil {
			rep.gens = make(map[string]int64)
		}
		if gen > rep.gens[m] {
			rep.gens[m] = gen
		}
	}
	prev := ReplicaState(rep.state.Load())
	next := prev
	switch observed {
	case StateHealthy:
		rep.consecFail = 0
		rep.consecOK++
		if rep.consecOK >= g.cfg.UpAfter || prev == StateUnknown {
			next = StateHealthy
		}
	case StateDown:
		rep.consecOK = 0
		rep.consecFail++
		if rep.consecFail >= g.cfg.DownAfter || prev == StateUnknown {
			next = StateDown
		}
	default: // not_ready, draining: the replica's own word
		rep.consecOK, rep.consecFail = 0, 0
		next = observed
	}
	if next != prev {
		g.setState(rep, next)
	}
	rep.mu.Unlock()

	result := "ok"
	switch observed {
	case StateDown:
		result = "down"
	case StateNotReady, StateDraining:
		result = "not_ready"
	}
	g.m.checks.With(result).Inc()
	g.m.replicaState.With(rep.Addr).Set(float64(next))
	if next != prev {
		g.logf("cluster: replica %s: %s -> %s (%s)", rep.Addr, prev, next, reason)
	}
}

// setState stores rep's health state after publishing the ring it calls
// for.
func (g *Gate) setState(rep *Replica, st ReplicaState) {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	g.publishRing(rep, st, rep.Drained())
	rep.state.Store(int32(st))
}

// setDrained stores rep's operator drain flag after publishing the ring
// it calls for.
func (g *Gate) setDrained(rep *Replica, drained bool) {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	g.publishRing(rep, rep.State(), drained)
	rep.drained.Store(drained)
}

// publishRing swaps in a new ring when the eligible set changed, counting
// rep as in state st with drain flag drained. Eligible replicas are
// healthy and not operator-drained. Callers hold ringMu and store st or
// drained only after it returns, so the ring never lags a change: a
// reader that sees a replica down, draining or drained finds it gone from
// the ring already. Breaker state is deliberately not consulted — an open
// breaker skips the replica at selection time but keeps its ring share,
// so a brief trip does not reshuffle the whole keyspace.
func (g *Gate) publishRing(rep *Replica, st ReplicaState, drained bool) {
	want := make([]string, 0, len(g.replicas))
	for _, r := range g.replicas {
		rs, rd := r.State(), r.Drained()
		if r == rep {
			rs, rd = st, drained
		}
		if rs == StateHealthy && !rd {
			want = append(want, r.Addr)
		}
	}
	if equalStrings(want, g.ring.Load().Members()) {
		return
	}
	g.ring.Store(NewRing(want, g.cfg.VNodes))
	g.logf("cluster: ring now %d replicas: %v", len(want), want)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candidates returns the failover chain for a key: eligible replicas in
// ring order, filtered to those serving at least the promoted
// generation of the model (generation pinning — after promotion the
// gate never routes a model's traffic to a replica still serving an
// older generation, which is what bounds the mixed-generation window).
func (g *Gate) candidates(key, model string) []*Replica {
	ring := g.ring.Load()
	addrs := ring.Sequence(key, ring.Len())
	floor := int64(0)
	if model != "" {
		g.mu.Lock()
		floor = g.promoted[model]
		g.mu.Unlock()
	}
	out := make([]*Replica, 0, len(addrs))
	for _, a := range addrs {
		rep := g.byAddr[a]
		if rep == nil {
			continue
		}
		if floor > 0 && rep.Generation(model) < floor {
			continue
		}
		out = append(out, rep)
	}
	return out
}

// setPromoted raises the model's routing floor.
func (g *Gate) setPromoted(model string, gen int64) {
	g.mu.Lock()
	if gen > g.promoted[model] {
		g.promoted[model] = gen
	}
	g.mu.Unlock()
	g.m.promotedGen.With(model).Set(float64(gen))
}

// replicaStatus is one replica's entry in the gate's health report.
type replicaStatus struct {
	Addr        string                   `json:"addr"`
	State       string                   `json:"state"`
	Drained     bool                     `json:"drained,omitempty"`
	Reason      string                   `json:"reason,omitempty"`
	Generations map[string]int64         `json:"generations,omitempty"`
	LastChecked time.Time                `json:"last_checked"`
	Breaker     resilience.BreakerStatus `json:"breaker"`
}

func (g *Gate) status() map[string]any {
	reps := make([]replicaStatus, 0, len(g.replicas))
	healthy := 0
	for _, rep := range g.replicas {
		rep.mu.Lock()
		gens := make(map[string]int64, len(rep.gens))
		for m, v := range rep.gens {
			gens[m] = v
		}
		st := replicaStatus{
			Addr:        rep.Addr,
			State:       rep.State().String(),
			Drained:     rep.Drained(),
			Reason:      rep.reason,
			Generations: gens,
			LastChecked: rep.lastChecked,
		}
		rep.mu.Unlock()
		st.Breaker = rep.br.Status()
		if st.State == "healthy" && !st.Drained {
			healthy++
		}
		reps = append(reps, st)
	}
	g.mu.Lock()
	promoted := make(map[string]int64, len(g.promoted))
	for m, v := range g.promoted {
		promoted[m] = v
	}
	rollouts := make(map[string]*RolloutStatus, len(g.rollouts))
	for m, st := range g.rollouts {
		rollouts[m] = st.clone()
	}
	g.mu.Unlock()
	status := "ok"
	switch {
	case healthy == 0:
		status = "down"
	case healthy < len(g.replicas):
		status = "degraded"
	}
	keys := make([]string, 0, len(promoted))
	for m := range promoted {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	return map[string]any{
		"status":    status,
		"replicas":  reps,
		"ring_size": g.ring.Load().Len(),
		"promoted":  promoted,
		"rollouts":  rollouts,
		"draining":  g.draining.Load(),
	}
}
