package bayesnet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// randomEvent draws a random event over the network: each chosen variable
// carries either equality evidence (one value) or set evidence (two or
// more values).
func randomEvent(rng *rand.Rand, net *Network) Event {
	evt := Event{}
	for v := 0; v < net.NumVars(); v++ {
		if rng.Float64() > 0.5 {
			continue
		}
		card := net.Var(v).Card
		if rng.Float64() < 0.5 {
			evt[v] = []int32{int32(rng.Intn(card))}
		} else {
			k := 2 + rng.Intn(card-1)
			perm := rng.Perm(card)
			set := make([]int32, 0, k)
			for _, x := range perm[:k] {
				set = append(set, int32(x))
			}
			evt[v] = set
		}
	}
	if len(evt) == 0 {
		evt[rng.Intn(net.NumVars())] = []int32{0}
	}
	return evt
}

// TestPlanDifferentialRandom is the plan-cache correctness contract: across
// random networks, shapes, and evidence, the compiled path must agree with
// the plan-free path bit for bit, because a plan replays the exact
// operation sequence.
func TestPlanDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for netTrial := 0; netTrial < 8; netTrial++ {
		net := randomNet(rng, 4+rng.Intn(5))
		for trial := 0; trial < 80; trial++ {
			evt := randomEvent(rng, net)
			want, err := net.ProbabilityUncompiledBudget(ctx, evt, Budget{})
			if err != nil {
				t.Fatalf("uncompiled: %v", err)
			}
			got, err := net.Probability(evt)
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			if got != want {
				t.Fatalf("net %d evt %v: compiled %v, uncompiled %v (diff %g)",
					netTrial, evt, got, want, got-want)
			}
		}
	}
}

// TestPlanCacheHitRate verifies that queries differing only in constants
// share one plan, and that PlanStats reports the reuse.
func TestPlanCacheHitRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := randomNet(rng, 5)
	for i := 0; i < 50; i++ {
		evt := Event{
			0: []int32{int32(i % net.Var(0).Card)},
			2: []int32{int32(i % net.Var(2).Card)},
		}
		if _, err := net.Probability(evt); err != nil {
			t.Fatal(err)
		}
	}
	st := net.PlanStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (one shape)", st.Misses)
	}
	if st.Hits != 49 {
		t.Fatalf("hits = %d, want 49", st.Hits)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if r := st.HitRate(); r < 0.9 {
		t.Fatalf("hit rate = %v, want > 0.9", r)
	}
	// A different shape (set evidence instead of equality) compiles anew.
	if _, err := net.Probability(Event{0: []int32{0, 1}, 2: []int32{0}}); err != nil {
		t.Fatal(err)
	}
	if st := net.PlanStats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after new shape: misses = %d entries = %d, want 2/2", st.Misses, st.Entries)
	}
}

// TestPlanCacheInvalidation checks that SetCPD drops compiled plans so
// estimates never serve stale parameters.
func TestPlanCacheInvalidation(t *testing.T) {
	net := New([]Variable{{Name: "A", Card: 2}})
	cpd := NewTableCPD(2, nil)
	cpd.SetDist(nil, []float64{0.25, 0.75})
	net.SetCPD(0, cpd)
	evt := Event{0: []int32{1}}
	if p, _ := net.Probability(evt); p != 0.75 {
		t.Fatalf("before swap: %v, want 0.75", p)
	}
	cpd2 := NewTableCPD(2, nil)
	cpd2.SetDist(nil, []float64{0.9, 0.1})
	net.SetCPD(0, cpd2)
	if p, _ := net.Probability(evt); p != 0.1 {
		t.Fatalf("after swap: %v, want 0.1 (stale plan served)", p)
	}
	if st := net.PlanStats(); st.Entries != 1 {
		t.Fatalf("entries after invalidation = %d, want 1 (recompiled)", st.Entries)
	}
}

// TestPlanBudgetParity checks that a budget refusal through a plan carries
// the same typed error and fields as the plan-free guard, and costs no
// work (it is a pre-scan over plan constants).
func TestPlanBudgetParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := randomNet(rng, 8)
	evt := Event{7: []int32{0, 1}} // closure pulls in ancestors; products run
	budget := Budget{MaxCells: 1}
	_, errU := net.ProbabilityUncompiledBudget(context.Background(), evt, budget)
	_, errC := net.ProbabilityBudget(context.Background(), evt, budget)
	if errU == nil || errC == nil {
		// Shape may happen to need no products; force one with wider evidence.
		evt = Event{5: []int32{0, 1}, 6: []int32{0, 1}, 7: []int32{0, 1}}
		_, errU = net.ProbabilityUncompiledBudget(context.Background(), evt, budget)
		_, errC = net.ProbabilityBudget(context.Background(), evt, budget)
	}
	if errU == nil || errC == nil {
		t.Fatalf("expected budget refusal on both paths, got uncompiled=%v compiled=%v", errU, errC)
	}
	if !errors.Is(errC, ErrBudgetExceeded) {
		t.Fatalf("compiled error %v does not unwrap to ErrBudgetExceeded", errC)
	}
	var bu, bc *BudgetError
	if !errors.As(errU, &bu) || !errors.As(errC, &bc) {
		t.Fatalf("expected *BudgetError on both paths")
	}
	if *bu != *bc {
		t.Fatalf("budget errors differ: uncompiled %+v, compiled %+v", bu, bc)
	}
}

// TestPlanCancelParity checks that an already-cancelled context stops a
// compiled run at the first variable boundary, like the uncompiled loop.
func TestPlanCancelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := randomNet(rng, 6)
	evt := Event{5: []int32{0, 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := net.ProbabilityBudget(ctx, evt, Budget{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("compiled run under cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestPlanConcurrentUseAndInvalidate races plan execution against cache
// invalidation; under -race this is the regression test for the plan
// cache's locking.
func TestPlanConcurrentUseAndInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := randomNet(rng, 6)
	events := make([]Event, 8)
	want := make([]float64, len(events))
	for i := range events {
		events[i] = randomEvent(rng, net)
		p, err := net.Probability(events[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	stop := make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		for {
			select {
			case <-stop:
				return
			default:
				net.InvalidatePlans()
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for r := 0; r < 200; r++ {
				i := (g + r) % len(events)
				p, err := net.Probability(events[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if p != want[i] {
					t.Errorf("goroutine %d event %d: %v, want %v", g, i, p, want[i])
					return
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	invalidator.Wait()
}
