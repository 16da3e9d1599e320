package core

import (
	"context"

	"prmsel/internal/bayesnet"
	"prmsel/internal/query"
)

// EstimateCountUncompiled is EstimateCount forced through the plan-free
// elimination path. It exists so differential tests and benchmarks can
// compare compiled plans against the legacy path in the same process.
func (m *PRM) EstimateCountUncompiled(q *query.Query) (float64, error) {
	return m.estimateGuarded(context.Background(), m.params(), q, evalOpts{uncompiled: true})
}

// SetPlanCapacity retunes the plan-cache bound of every cached
// evaluation network and of networks built afterwards; n <= 0 restores
// the per-network default. It holds mu across the epoch's shape-map load
// so a concurrent shape insert (also under mu) cannot slip a network past
// the retune: the insert either sees the new planCap or is visible here.
func (m *PRM) SetPlanCapacity(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		n = 0
	}
	m.planCap = n
	for _, em := range *m.params().shapes.Load() {
		em.net.SetPlanCapacity(n)
	}
}

// PlanStats aggregates the plan-cache counters of every cached evaluation
// network in the current epoch. Refits publish a new epoch with an empty
// shape cache, so the counters restart from zero after a parameter change.
func (m *PRM) PlanStats() bayesnet.PlanCacheStats {
	var agg bayesnet.PlanCacheStats
	for _, em := range *m.params().shapes.Load() {
		st := em.net.PlanStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Entries += st.Entries
		agg.Capacity += st.Capacity
	}
	return agg
}
