package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"prmsel/internal/bayesnet"
	"prmsel/internal/obs"
	"prmsel/internal/query"
)

// Tier names one level of the graceful-degradation chain an estimate can
// be answered at. The serving contract (and the contract commercial
// optimizers expect of their estimators) is that a query always gets a
// number: exact elimination when it fits the resource budget, a sampled
// approximation when it does not, and — one layer up, in the serving
// stack — the AVI baseline when even sampling fails.
type Tier string

const (
	// TierExact is variable elimination over the unrolled network.
	TierExact Tier = "exact"
	// TierApprox is likelihood-weighting importance sampling.
	TierApprox Tier = "approx"
	// TierAVI is the attribute-value-independence baseline; core never
	// produces it (the PRM has no AVI path), but the serving layer does.
	TierAVI Tier = "avi"
)

// InternalError is a panic caught at the estimate boundary: an internal
// invariant was violated (corrupt model state, an unanticipated query
// shape). It is a server-side bug by definition, but it must surface as a
// value, not a crash.
type InternalError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("core: internal panic during %s: %v", e.Op, e.Value)
}

// EstimateOptions tunes the degradation chain.
type EstimateOptions struct {
	// Budget bounds exact elimination; zero means unlimited (the chain
	// then degrades only on panics and injected faults).
	Budget bayesnet.Budget
	// ApproxSamples sizes the likelihood-weighting fallback (default
	// 4096 — comfortably sub-millisecond on the evaluation networks).
	ApproxSamples int
	// Seed drives the fallback's sampler; estimates for the same query
	// are deterministic for a fixed seed, which keeps cached and
	// uncached responses consistent.
	Seed int64
	// MaxTier caps where the chain may start ("" or TierExact = full
	// chain). TierApprox (or below) skips exact elimination entirely —
	// the brownout controller uses this to shed inference cost while
	// still answering every query.
	MaxTier Tier
}

// errExactDisabled is the degradation reason when the exact tier was
// skipped by policy rather than failing on its own.
var errExactDisabled = errors.New("core: exact tier disabled by brownout ceiling")

// EstimateResult is an estimate annotated with how it was produced.
type EstimateResult struct {
	Estimate float64
	// Tier is the level of the chain that answered.
	Tier Tier
	// Reason is why the chain degraded below exact ("" at TierExact) —
	// the message of the error the preferred tier failed with.
	Reason string
}

// degradable reports whether failing err at one tier should fall through
// to the next, rather than fail the request. Cancellation never degrades:
// the caller is gone, and the cheaper tier would be wasted work that also
// masks the timeout from the client.
func degradable(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// EstimateCountFallback estimates q through the degradation chain: exact
// elimination under opts.Budget first; on a budget refusal, a recovered
// panic, or any other non-cancellation failure, likelihood weighting over
// the same unrolled network. The result carries the tier that answered and
// the reason the chain moved, so callers (and their metrics) can tell a
// degraded answer from a first-class one. An error is returned only when
// every tier failed or the context was cancelled.
func (m *PRM) EstimateCountFallback(ctx context.Context, q *query.Query, opts EstimateOptions) (EstimateResult, error) {
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, fmt.Errorf("core: estimate interrupted: %w", err)
	}
	// One epoch for every tier, so a degraded answer reads the same
	// parameters the exact attempt did even across a concurrent refit.
	ep := m.params()
	samples := opts.ApproxSamples
	if samples <= 0 {
		samples = 4096
	}
	ctx, sp := obs.Start(ctx, "estimate")

	var est float64
	var exactErr error
	if opts.MaxTier != "" && opts.MaxTier != TierExact {
		exactErr = errExactDisabled
	} else {
		est, exactErr = m.estimateGuarded(ctx, ep, q, evalOpts{budget: opts.Budget})
	}
	if exactErr == nil {
		if sp != nil {
			sp.Set(obs.Str("tier", string(TierExact)), obs.Float("estimate", est))
			sp.End()
		}
		return EstimateResult{Estimate: est, Tier: TierExact}, nil
	}
	if !degradable(exactErr) {
		sp.Set(obs.Str("interrupted", exactErr.Error()))
		sp.End()
		return EstimateResult{}, exactErr
	}

	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	est, approxErr := m.estimateGuarded(ctx, ep, q, evalOpts{
		approx:  true,
		samples: samples,
		rng:     rand.New(rand.NewSource(seed)),
	})
	if approxErr == nil {
		if sp != nil {
			sp.Set(obs.Str("tier", string(TierApprox)), obs.Str("reason", exactErr.Error()),
				obs.Float("estimate", est))
			sp.End()
		}
		return EstimateResult{Estimate: est, Tier: TierApprox, Reason: exactErr.Error()}, nil
	}
	sp.Set(obs.Str("tier_exhausted", approxErr.Error()))
	sp.End()
	if !degradable(approxErr) {
		return EstimateResult{}, approxErr
	}
	return EstimateResult{}, fmt.Errorf("core: every inference tier failed: exact: %v; approx: %w", exactErr, approxErr)
}
