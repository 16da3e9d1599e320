package bayesnet

import (
	"context"
	"fmt"
	"math/rand"

	"prmsel/internal/faults"
	"prmsel/internal/obs"
)

// LikelihoodWeightingCtx estimates P(evt) by importance sampling:
// ancestral sampling where event variables are not sampled but clamped,
// with each particle weighted by the probability of the clamping. It is
// the approximate fallback for networks whose exact inference is
// intractable (BN inference is NP-hard in general, paper §2.3, and
// variable elimination can blow up on dense structures): the tier of the
// graceful-degradation chain that answers when exact elimination refuses
// its resource budget.
//
// For multi-value (range) evidence the sampler draws the variable from its
// conditional restricted to the accepted set and weights by the accepted
// mass. The estimator is unbiased; its variance shrinks as O(1/samples).
// A span-carrying context records the sampling as an "approx" span, and
// cancellation stops the particle loop between batches.
func (n *Network) LikelihoodWeightingCtx(ctx context.Context, evt Event, samples int, rng *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("bayesnet: need a positive sample count, got %d", samples)
	}
	if err := n.validateEvent(evt); err != nil {
		return 0, err
	}
	accept := make(map[int]map[int32]bool, len(evt))
	for v, set := range evt {
		m := make(map[int32]bool, len(set))
		for _, val := range set {
			m[val] = true
		}
		accept[v] = m
	}
	order, err := n.TopoOrder()
	if err != nil {
		return 0, err
	}
	_, sp := obs.Start(ctx, "approx")
	if err := faults.Inject("bayesnet.approx"); err != nil {
		sp.Set(obs.Str("injected", err.Error()))
		sp.End()
		return 0, err
	}

	assignment := make([]int32, len(n.vars))
	var total float64
	for s := 0; s < samples; s++ {
		// A cancelled caller stops between batches; each particle is a
		// cheap O(#vars) walk, so checking every 64th keeps the poll cost
		// invisible while still bounding overrun.
		if s%64 == 0 {
			if err := ctx.Err(); err != nil {
				sp.Set(obs.Str("interrupted", err.Error()))
				sp.End()
				return 0, fmt.Errorf("bayesnet: sampling interrupted: %w", err)
			}
		}
		weight := 1.0
		for _, v := range order {
			pvals := make([]int32, len(n.parents[v]))
			for i, q := range n.parents[v] {
				pvals[i] = assignment[q]
			}
			set, observed := accept[v]
			if !observed {
				assignment[v] = n.sampleVar(v, pvals, nil, rng)
				continue
			}
			// Clamp: weight by the accepted mass, then draw within it so
			// descendants see a consistent configuration.
			var mass float64
			for val := range set {
				mass += n.cpds[v].Prob(val, pvals)
			}
			weight *= mass
			if mass <= 0 {
				break // this particle contributes zero
			}
			assignment[v] = n.sampleVar(v, pvals, set, rng)
		}
		total += weight
	}
	if sp != nil {
		sp.Set(obs.Int("samples", samples))
		sp.End()
	}
	return total / float64(samples), nil
}

// sampleVar draws a value for v given parent values, optionally restricted
// to an accept set (renormalized).
func (n *Network) sampleVar(v int, pvals []int32, accept map[int32]bool, rng *rand.Rand) int32 {
	var mass float64
	if accept == nil {
		mass = 1
	} else {
		for val := range accept {
			mass += n.cpds[v].Prob(val, pvals)
		}
		if mass <= 0 {
			// Degenerate: fall back to any accepted value.
			for val := range accept {
				return val
			}
		}
	}
	u := rng.Float64() * mass
	var cum float64
	last := int32(n.vars[v].Card - 1)
	for x := 0; x < n.vars[v].Card; x++ {
		val := int32(x)
		if accept != nil && !accept[val] {
			continue
		}
		last = val
		cum += n.cpds[v].Prob(val, pvals)
		if u < cum {
			return val
		}
	}
	return last
}
