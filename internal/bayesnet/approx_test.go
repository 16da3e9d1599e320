package bayesnet

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestLikelihoodWeightingConvergesToExact(t *testing.T) {
	net := fig1Net(t)
	rng := rand.New(rand.NewSource(5))
	cases := []Event{
		{0: {0}, 1: {0}, 2: {0}},  // exact 0.27
		{1: {1, 2}, 2: {1}},       // exact 0.297
		{0: {2}},                  // exact 0.2
		{2: {0, 1}},               // exact 1
		{0: {0, 1, 2}, 1: {0, 1}}, // range-only event
	}
	for i, evt := range cases {
		exact, err := net.Probability(evt)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := net.LikelihoodWeightingCtx(context.Background(), evt, 200000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx-exact) > 0.01 {
			t.Errorf("case %d: LW = %v, exact = %v", i, approx, exact)
		}
	}
}

func TestLikelihoodWeightingRandomNets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		net := randomNet(rng, 4)
		evt := Event{0: {0}, 3: {0, 1}}
		exact, err := net.Probability(evt)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := net.LikelihoodWeightingCtx(context.Background(), evt, 100000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx-exact) > 0.02 {
			t.Errorf("trial %d: LW = %v, exact = %v", trial, approx, exact)
		}
	}
}

func TestLikelihoodWeightingErrors(t *testing.T) {
	net := fig1Net(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := net.LikelihoodWeightingCtx(context.Background(), Event{0: {0}}, 0, rng); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := net.LikelihoodWeightingCtx(context.Background(), Event{9: {0}}, 10, rng); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := net.LikelihoodWeightingCtx(context.Background(), Event{0: {}}, 10, rng); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := net.LikelihoodWeightingCtx(context.Background(), Event{0: {9}}, 10, rng); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestLikelihoodWeightingZeroProbabilityEvent(t *testing.T) {
	// An event with zero support must estimate (near) zero, not crash.
	net := New([]Variable{{Name: "A", Card: 2}, {Name: "B", Card: 2}})
	a := NewTableCPD(2, nil)
	copy(a.Dist, []float64{1, 0}) // A is always 0
	net.SetCPD(0, a)
	net.SetParents(1, []int{0})
	b := NewTableCPD(2, []int{2})
	b.SetDist([]int32{0}, []float64{1, 0})
	b.SetDist([]int32{1}, []float64{0, 1})
	net.SetCPD(1, b)
	rng := rand.New(rand.NewSource(3))
	p, err := net.LikelihoodWeightingCtx(context.Background(), Event{0: {1}}, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("impossible event estimated at %v", p)
	}
}
