package resilience

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// State is a brownout level. Levels are ordered: each one gives up more
// answer quality to buy back latency and memory headroom, and Shed is
// the last stop before the process would fall over on its own terms.
type State int32

const (
	// Normal serves the full tier chain with configured capacities.
	Normal State = iota
	// Brownout1 skips the exact tier (answers start at the approximate
	// tier) and thins journal sampling.
	Brownout1
	// Brownout2 serves AVI-only answers, shrinks the inference cache,
	// and tightens admission.
	Brownout2
	// Shed refuses cache-missing estimate work outright with 503 +
	// Retry-After; cache hits are still served.
	Shed
)

func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Brownout1:
		return "brownout1"
	case Brownout2:
		return "brownout2"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Signals is one sample of the server's health, taken every tick.
type Signals struct {
	// Burn is the worst SLO burn rate over the shortest window (1.0 =
	// consuming error budget exactly as fast as allowed).
	Burn float64
	// QueueFrac is admission queue depth / queue capacity, in [0, 1].
	QueueFrac float64
	// AdmitFrac is admitted weight / admission capacity. It is reported
	// in Status for operators but does not feed pressure: a fully busy
	// semaphore with an empty queue is a healthy server at capacity.
	AdmitFrac float64
	// MemFrac is heap-in-use / soft memory limit; 0 disables the signal.
	MemFrac float64
}

// The ladder's fixed tuning (DESIGN §14).
const (
	// burnRef, queueRef and memRef are the SLO burn rate, queue fraction
	// and heap fraction that alone yield pressure 1.0: eating error budget
	// at twice the sustainable rate, a half-full admission queue, a heap
	// at 90% of its soft limit.
	burnRef  = 2
	queueRef = 0.5
	memRef   = 0.9
	// exitFrac scales an entry threshold down to its release threshold:
	// a level is left only once pressure falls below enter[level-1] *
	// exitFrac, the hysteresis band that stops flapping at a boundary.
	exitFrac = 0.5
	// escalateTicks is how many consecutive ticks pressure must demand a
	// higher state before the controller escalates.
	escalateTicks = 2
	// releaseTicks is how many consecutive ticks pressure must sit below
	// the release threshold before the controller steps down one level:
	// recovery is deliberately slower than escalation.
	releaseTicks = 3
)

// enter holds the pressure thresholds at which Brownout1, Brownout2 and
// Shed engage.
var enter = [3]float64{1, 2, 4}

// ControllerConfig wires the brownout feedback loop.
type ControllerConfig struct {
	// Tick is the sampling period (default 1s).
	Tick time.Duration
	// Source samples the server's signals; called once per tick from the
	// controller goroutine. Required for Start; Step can be driven
	// directly in tests without it.
	Source func() Signals
	// OnTransition runs on the controller goroutine after every state
	// change. The serve layer actuates its knobs here.
	OnTransition func(from, to State, pressure float64)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Controller is the brownout feedback loop. Step is single-goroutine
// (the tick loop, or a test driving it directly); State, Pressure, and
// Status are safe to read from anywhere.
type Controller struct {
	cfg ControllerConfig

	state       atomic.Int32
	pressure    atomic.Uint64 // math.Float64bits
	transitions atomic.Int64
	sinceNS     atomic.Int64 // wall clock of the last transition

	// Tick-loop-private hysteresis counters.
	above, below int

	startOnce, stopOnce sync.Once
	stopc               chan struct{}
	done                chan struct{}
}

// NewController builds a controller from cfg with defaults applied. It
// does not start the tick loop; call Start (or drive Step directly).
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{
		cfg:   cfg,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.sinceNS.Store(cfg.Now().UnixNano())
	return c
}

// Pressure folds one signal sample into a single scalar: the max of the
// normalized signals, so whichever resource is most stressed dictates
// the state. 1.0 is the Brownout1 boundary.
func (c *Controller) Pressure(sig Signals) float64 {
	p := sig.Burn / burnRef
	if q := sig.QueueFrac / queueRef; q > p {
		p = q
	}
	if sig.MemFrac > 0 {
		if m := sig.MemFrac / memRef; m > p {
			p = m
		}
	}
	return p
}

// target maps a pressure value to the state it asks for.
func (c *Controller) target(p float64) State {
	switch {
	case p >= enter[2]:
		return Shed
	case p >= enter[1]:
		return Brownout2
	case p >= enter[0]:
		return Brownout1
	}
	return Normal
}

// Step folds one sample into the hysteresis state machine. Escalation
// jumps straight to the demanded state after escalateTicks consecutive
// ticks above it; release steps down one level at a time after
// releaseTicks consecutive ticks below the current level's exit
// threshold. The two counters reset each other, so oscillation around a
// boundary holds the current state. Not safe for concurrent callers —
// the tick loop is the only writer.
func (c *Controller) Step(sig Signals) {
	p := c.Pressure(sig)
	c.pressure.Store(math.Float64bits(p))
	cur := State(c.state.Load())
	want := c.target(p)

	if want > cur {
		c.above++
		c.below = 0
		if c.above >= escalateTicks {
			c.transition(cur, want, p)
			c.above = 0
		}
		return
	}
	c.above = 0
	if cur == Normal {
		c.below = 0
		return
	}
	// Exit threshold for the current level, scaled by the hysteresis
	// band: we only step down once pressure is comfortably below the
	// level's entry point.
	exit := enter[cur-1] * exitFrac
	if p < exit {
		c.below++
		if c.below >= releaseTicks {
			c.transition(cur, cur-1, p)
			c.below = 0
		}
	} else {
		c.below = 0
	}
}

func (c *Controller) transition(from, to State, pressure float64) {
	c.state.Store(int32(to))
	c.transitions.Add(1)
	c.sinceNS.Store(c.cfg.Now().UnixNano())
	if c.cfg.OnTransition != nil {
		c.cfg.OnTransition(from, to, pressure)
	}
}

// Start launches the tick loop; it needs cfg.Source. Idempotent.
func (c *Controller) Start() {
	if c.cfg.Source == nil {
		return
	}
	c.startOnce.Do(func() {
		go c.run()
	})
}

// run is the tick loop. The whole steady-state path — Source, Pressure,
// Step — is allocation-free by design: background ticks must not
// perturb the serve layer's AllocsPerRun guard tests, and a controller
// that allocates under memory pressure is working against itself.
func (c *Controller) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Step(c.cfg.Source())
		case <-c.stopc:
			return
		}
	}
}

// Stop halts the tick loop and waits for it to exit. Safe to call
// multiple times, and before Start (which then becomes a no-op).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	// If Start never ran (or never will), claim the once ourselves so
	// done is closed either way.
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
}

// State returns the current brownout level.
func (c *Controller) State() State {
	if c == nil {
		return Normal
	}
	return State(c.state.Load())
}

// PressureValue returns the last sampled pressure scalar.
func (c *Controller) PressureValue() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.pressure.Load())
}

// Transitions returns the lifetime state-change count.
func (c *Controller) Transitions() int64 {
	if c == nil {
		return 0
	}
	return c.transitions.Load()
}

// RetryAfter is the backoff to advertise on shed responses: the
// earliest the controller could possibly have stepped down a level.
func (c *Controller) RetryAfter() time.Duration {
	if c == nil {
		return time.Second
	}
	d := c.cfg.Tick * releaseTicks
	if d < time.Second {
		d = time.Second
	}
	return d
}

// ControllerStatus is the controller's health snapshot.
type ControllerStatus struct {
	State       string    `json:"state"`
	Pressure    float64   `json:"pressure"`
	Since       time.Time `json:"since"`
	Transitions int64     `json:"transitions"`
}

// Status snapshots the controller for health output.
func (c *Controller) Status() ControllerStatus {
	if c == nil {
		return ControllerStatus{State: Normal.String()}
	}
	return ControllerStatus{
		State:       c.State().String(),
		Pressure:    c.PressureValue(),
		Since:       time.Unix(0, c.sinceNS.Load()),
		Transitions: c.transitions.Load(),
	}
}
