package eval

import (
	"context"
	"fmt"
	"math/rand"

	"prmsel/internal/baselines"
	"prmsel/internal/core"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
	"prmsel/internal/obs"
	"prmsel/internal/query"
)

// PRMEstimator adapts core.PRM to the baselines.Estimator contract.
type PRMEstimator struct {
	Label string
	M     *core.PRM
}

var _ baselines.Estimator = (*PRMEstimator)(nil)

// Name implements baselines.Estimator.
func (p *PRMEstimator) Name() string { return p.Label }

// EstimateCount implements baselines.Estimator.
func (p *PRMEstimator) EstimateCount(q *query.Query) (float64, error) { return p.M.EstimateCount(q) }

// EstimateCountCtx estimates under a context: a span-carrying context
// records the estimate's trace, and cancellation stops inference early.
// The estimation service feeds request contexts through here.
func (p *PRMEstimator) EstimateCountCtx(ctx context.Context, q *query.Query) (float64, error) {
	return p.M.EstimateCountCtx(ctx, q)
}

// EstimateCountFallback estimates through the model's graceful-degradation
// chain (exact elimination under a budget, then likelihood weighting). The
// estimation service uses this so a query that blows the resource budget
// still gets an answer, annotated with the tier that produced it.
func (p *PRMEstimator) EstimateCountFallback(ctx context.Context, q *query.Query, opts core.EstimateOptions) (core.EstimateResult, error) {
	return p.M.EstimateCountFallback(ctx, q, opts)
}

// Explain reports how an estimate was assembled (closure, probability,
// scaling, join indicators).
func (p *PRMEstimator) Explain(q *query.Query) (*core.Explanation, error) { return p.M.Explain(q) }

// PlanStats reports the model's compiled-query cache counters; the
// estimation service surfaces them in /healthz.
func (p *PRMEstimator) PlanStats() core.PlanCacheStats { return p.M.PlanStats() }

// StorageBytes implements baselines.Estimator.
func (p *PRMEstimator) StorageBytes() int { return p.M.StorageBytes() }

// LearnOptions bundles what the experiments vary when learning a model.
type LearnOptions struct {
	Kind        learn.CPDKind
	Criterion   learn.Criterion
	Budget      int
	MaxParents  int
	UniformJoin bool
	Seed        int64
	// TopK prunes candidate parents by pairwise MI (0 = no pruning).
	TopK int
	// Workers parallelizes candidate fitting (0/1 = serial).
	Workers int
	// Trace, when non-nil, records structure search under it (one "search"
	// span with per-move events; see learn.Options.Trace).
	Trace *obs.Span
}

// LearnPRM learns a PRM (or, with UniformJoin, the BN+UJ baseline) on db
// and wraps it as an estimator.
func LearnPRM(db *dataset.Database, name string, o LearnOptions) (*PRMEstimator, error) {
	maxParents := o.MaxParents
	if maxParents == 0 {
		maxParents = 4
	}
	cfg := core.Config{
		Fit: learn.FitConfig{Kind: o.Kind, TopKCandidates: o.TopK},
		Search: learn.Options{
			Criterion:   o.Criterion,
			BudgetBytes: o.Budget,
			MaxParents:  maxParents,
			Seed:        o.Seed,
			Workers:     o.Workers,
			Trace:       o.Trace,
		},
		UniformJoin: o.UniformJoin,
	}
	m, err := core.Learn(db, cfg)
	if err != nil {
		return nil, err
	}
	return &PRMEstimator{Label: name, M: m}, nil
}

// ProjectTable returns a single-table database containing only the named
// attributes of t — the "model built over the queried attributes" setting
// of the paper's first experiment set.
func ProjectTable(t *dataset.Table, attrs []string) (*dataset.Database, error) {
	idxs := make([]int, len(attrs))
	schema := dataset.Schema{Name: t.Name}
	for i, a := range attrs {
		ai := t.AttrIndex(a)
		if ai < 0 {
			return nil, fmt.Errorf("eval: table %s has no attribute %q", t.Name, a)
		}
		idxs[i] = ai
		schema.Attributes = append(schema.Attributes, t.Attributes[ai])
	}
	proj := dataset.NewTable(schema)
	row := make([]int32, len(idxs))
	for r := 0; r < t.Len(); r++ {
		for i, ai := range idxs {
			row[i] = t.Value(r, ai)
		}
		proj.MustAppendRow(row, nil)
	}
	db := dataset.NewDatabase()
	if err := db.AddTable(proj); err != nil {
		return nil, err
	}
	return db, nil
}

// SampleForBudget builds a single-table SAMPLE estimator sized to the byte
// budget, storing storedAttrs codes per row.
func SampleForBudget(t *dataset.Table, storedAttrs, budget int, seed int64) *baselines.Sample {
	k := budget / (storedAttrs * baselines.BytesPerCode)
	if k < 1 {
		k = 1
	}
	return baselines.NewTableSample(t, k, rand.New(rand.NewSource(seed)))
}

// JoinSampleForBudget builds a join SAMPLE estimator over the skeleton,
// sized to the byte budget; storedAttrs is the total attribute count across
// the skeleton's tables.
func JoinSampleForBudget(db *dataset.Database, skeleton *query.Query, base string, storedAttrs, budget int, seed int64) (*baselines.Sample, error) {
	k := budget / (storedAttrs * baselines.BytesPerCode)
	if k < 1 {
		k = 1
	}
	return baselines.NewJoinSample(db, skeleton, base, k, rand.New(rand.NewSource(seed)))
}
