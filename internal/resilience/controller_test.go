package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func stepN(c *Controller, n int, sig Signals) {
	for i := 0; i < n; i++ {
		c.Step(sig)
	}
}

func TestControllerEscalatesAfterConsecutiveTicks(t *testing.T) {
	c := NewController(ControllerConfig{})
	// One hot tick is noise, not a trend.
	c.Step(Signals{Burn: 3}) // pressure 1.5 -> wants brownout1
	if got := c.State(); got != Normal {
		t.Fatalf("state after 1 hot tick = %v, want normal", got)
	}
	c.Step(Signals{Burn: 3})
	if got := c.State(); got != Brownout1 {
		t.Fatalf("state after 2 hot ticks = %v, want brownout1", got)
	}
}

func TestControllerEscalationJumpsToDemandedState(t *testing.T) {
	c := NewController(ControllerConfig{})
	// Pressure 8/2 = 4 demands shed directly; no ladder-climbing through
	// intermediate states while the server is on fire.
	stepN(c, 2, Signals{Burn: 8})
	if got := c.State(); got != Shed {
		t.Fatalf("state = %v, want shed", got)
	}
}

// TestControllerHysteresisNoFlap oscillates pressure right at the
// Brownout1 boundary: the state must hold, not flap.
func TestControllerHysteresisNoFlap(t *testing.T) {
	var transitions atomic.Int64
	c := NewController(ControllerConfig{
		OnTransition: func(from, to State, p float64) { transitions.Add(1) },
	})
	// Enter brownout1 cleanly.
	stepN(c, 2, Signals{Burn: 2.2}) // pressure 1.1
	if got := c.State(); got != Brownout1 {
		t.Fatalf("setup: state = %v, want brownout1", got)
	}
	base := transitions.Load()
	// Oscillate around the entry threshold (pressure alternating 1.1 /
	// 0.9). 0.9 is above the exit threshold (1.0 * 0.5 = 0.5), so the
	// release counter must never fire; 1.1 never holds for escalateTicks
	// toward a higher state either.
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			c.Step(Signals{Burn: 2.2})
		} else {
			c.Step(Signals{Burn: 1.8})
		}
	}
	if got := c.State(); got != Brownout1 {
		t.Fatalf("state after oscillation = %v, want brownout1", got)
	}
	if got := transitions.Load(); got != base {
		t.Fatalf("transitions during boundary oscillation = %d, want 0", got-base)
	}
}

// TestControllerRecoveryToNormal walks the controller up to shed and
// verifies it steps back down one level at a time once pressure clears,
// ending at normal.
func TestControllerRecoveryToNormal(t *testing.T) {
	var mu sync.Mutex
	var seq []State
	c := NewController(ControllerConfig{
		OnTransition: func(from, to State, p float64) {
			mu.Lock()
			seq = append(seq, to)
			mu.Unlock()
		},
	})
	stepN(c, 2, Signals{Burn: 10})
	if got := c.State(); got != Shed {
		t.Fatalf("setup: state = %v, want shed", got)
	}
	// Faults clear: pressure 0. Each level needs releaseTicks ticks.
	stepN(c, 3, Signals{})
	if got := c.State(); got != Brownout2 {
		t.Fatalf("after 3 calm ticks state = %v, want brownout2", got)
	}
	stepN(c, 3, Signals{})
	if got := c.State(); got != Brownout1 {
		t.Fatalf("after 6 calm ticks state = %v, want brownout1", got)
	}
	stepN(c, 3, Signals{})
	if got := c.State(); got != Normal {
		t.Fatalf("after 9 calm ticks state = %v, want normal", got)
	}
	// Further calm ticks must not underflow or re-transition.
	stepN(c, 5, Signals{})
	if got := c.State(); got != Normal {
		t.Fatalf("state = %v, want normal", got)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []State{Shed, Brownout2, Brownout1, Normal}
	if len(seq) != len(want) {
		t.Fatalf("transition sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition sequence = %v, want %v", seq, want)
		}
	}
}

// TestControllerPartialRecoveryReescalates checks the release counter
// resets when pressure comes back mid-recovery.
func TestControllerPartialRecoveryReescalates(t *testing.T) {
	c := NewController(ControllerConfig{})
	stepN(c, 2, Signals{Burn: 5}) // pressure 2.5 -> brownout2
	if got := c.State(); got != Brownout2 {
		t.Fatalf("setup: state = %v, want brownout2", got)
	}
	// Two calm ticks, then pressure returns before the third.
	stepN(c, 2, Signals{})
	c.Step(Signals{Burn: 3})
	stepN(c, 2, Signals{})
	if got := c.State(); got != Brownout2 {
		t.Fatalf("state = %v, want brownout2 (release counter must reset)", got)
	}
}

func TestControllerPressureIsMaxOfSignals(t *testing.T) {
	c := NewController(ControllerConfig{})
	// burnRef 2, queueRef 0.5, memRef 0.9.
	if got := c.Pressure(Signals{Burn: 4}); got != 2 {
		t.Fatalf("burn pressure = %v, want 2", got)
	}
	if got := c.Pressure(Signals{QueueFrac: 0.5}); got != 1 {
		t.Fatalf("queue pressure = %v, want 1", got)
	}
	if got := c.Pressure(Signals{Burn: 1, QueueFrac: 1, MemFrac: 0.45}); got != 2 {
		t.Fatalf("max pressure = %v, want 2 (queue dominates)", got)
	}
	// MemFrac 0 disables the memory signal entirely.
	if got := c.Pressure(Signals{}); got != 0 {
		t.Fatalf("idle pressure = %v, want 0", got)
	}
	// AdmitFrac is observability-only.
	if got := c.Pressure(Signals{AdmitFrac: 1}); got != 0 {
		t.Fatalf("admit-only pressure = %v, want 0", got)
	}
}

func TestControllerTickLoopAndStop(t *testing.T) {
	var sig atomic.Int64 // burn x10
	c := NewController(ControllerConfig{
		Tick: 2 * time.Millisecond,
		Source: func() Signals {
			return Signals{Burn: float64(sig.Load()) / 10}
		},
	})
	c.Start()
	sig.Store(60) // pressure 3 -> brownout2
	deadline := time.Now().Add(2 * time.Second)
	for c.State() != Brownout2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.State(); got != Brownout2 {
		t.Fatalf("tick loop never escalated: state = %v", got)
	}
	sig.Store(0)
	for c.State() != Normal && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.State(); got != Normal {
		t.Fatalf("tick loop never recovered: state = %v", got)
	}
	c.Stop()
	c.Stop() // idempotent
	st := c.Status()
	if st.State != "normal" || st.Transitions < 2 {
		t.Fatalf("status = %+v, want normal with >=2 transitions", st)
	}
}

func TestControllerStopBeforeStart(t *testing.T) {
	c := NewController(ControllerConfig{Source: func() Signals { return Signals{} }})
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop before Start deadlocked")
	}
	c.Start() // must be a no-op now
}

// TestControllerStepAllocFree pins the per-tick steady-state path at
// zero allocations: the background controller must not perturb the
// serve layer's AllocsPerRun guard tests.
func TestControllerStepAllocFree(t *testing.T) {
	c := NewController(ControllerConfig{})
	sig := Signals{Burn: 0.4, QueueFrac: 0.1}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Step(sig)
		_ = c.State()
		_ = c.PressureValue()
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %v per run, want 0", allocs)
	}
}
