package bayesnet

import (
	"context"
	"errors"
	"math/rand"
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

// TestPlanDifferentialRandom is the compiled plans' correctness contract:
// across random networks, shapes, and evidence, the compiled path must
// agree with the plan-free path bit for bit, because a plan replays the
// exact operation sequence.
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
