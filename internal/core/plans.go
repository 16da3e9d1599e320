package core

import (
	"context"

	"prmsel/internal/query"
)

// EstimateCountUncompiled is EstimateCount forced through the plan-free
// elimination path. It exists so differential tests and benchmarks can
// compare compiled plans against the legacy path in the same process.
func (m *PRM) EstimateCountUncompiled(q *query.Query) (float64, error) {
	return m.estimateGuarded(context.Background(), m.params(), q, evalOpts{uncompiled: true})
}

// PlanCacheStats reports the compiled-query cache of one parameter epoch.
type PlanCacheStats struct {
	Hits    uint64 // lookups that found the query's shape compiled
	Misses  uint64 // lookups that unrolled and compiled a new shape
	Entries int    // shapes held
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanStats returns the compiled-query cache counters of the current
// parameter epoch. Every publish (a refit) starts an epoch with an empty
// cache, so the counters restart from zero after a parameter change.
func (m *PRM) PlanStats() PlanCacheStats {
	ep := m.params()
	return PlanCacheStats{
		Hits:    ep.hits.Load(),
		Misses:  ep.misses.Load(),
		Entries: len(*ep.queries.Load()),
	}
}
