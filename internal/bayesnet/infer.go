package bayesnet

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"prmsel/internal/factor"
	"prmsel/internal/faults"
	"prmsel/internal/obs"
)

// ErrBudgetExceeded is the sentinel a budget-guarded elimination wraps when
// it would have to build an intermediate factor larger than its Budget
// allows. Callers match it with errors.Is and degrade to approximate
// inference instead of letting a pathological query allocate without bound
// (exact BN inference is worst-case exponential, paper §2.3).
var ErrBudgetExceeded = errors.New("bayesnet: elimination budget exceeded")

// Budget bounds the resources one variable elimination may commit. The
// zero value means unlimited; a bounded elimination checks every factor
// product *before* allocating its result, so exceeding the budget costs
// nothing but the typed error.
type Budget struct {
	// MaxCells caps the table size (entries) of any intermediate factor.
	MaxCells int
	// MaxWidth caps the scope size (variables) of any intermediate factor.
	MaxWidth int
}

// Enabled reports whether any bound is set.
func (b Budget) Enabled() bool { return b.MaxCells > 0 || b.MaxWidth > 0 }

// BudgetError carries what the guarded elimination refused to build; it
// unwraps to ErrBudgetExceeded.
type BudgetError struct {
	Cells, MaxCells int
	Width, MaxWidth int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("bayesnet: elimination needs a %d-cell, %d-variable factor (budget: %d cells, %d variables)",
		e.Cells, e.Width, e.MaxCells, e.MaxWidth)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Event is the query form inference answers: a conjunction over variables,
// each restricted to a set of accepted values. A single-value set is an
// equality predicate; larger sets encode range/IN predicates.
type Event map[int][]int32

// Probability returns P(evt) under the network's joint distribution,
// computed by variable elimination over the ancestral closure of the event
// variables. Only the queried variables and their ancestors enter the
// computation (paper §3.3).
func (n *Network) Probability(evt Event) (float64, error) {
	return n.probability(context.Background(), evt, Budget{})
}

// ProbabilityBudget is Probability under a context and a resource budget.
// A span-carrying context records the elimination as an "infer" span, and
// cancellation stops it between variables. A zero Budget is unlimited.
// Under a set one the elimination refuses, with an error wrapping
// ErrBudgetExceeded, to build any intermediate factor over the budget
// (checking before it allocates), and re-checks the context's deadline
// between factor products rather than only between variables.
func (n *Network) ProbabilityBudget(ctx context.Context, evt Event, b Budget) (float64, error) {
	return n.probability(ctx, evt, b)
}

// ProbabilityUncompiledBudget is ProbabilityBudget forced through the
// plan-free path: closure, evidence application, ordering, and elimination
// are all redone per call. It exists as the reference the compiled plans
// are tested against; production callers use ProbabilityBudget.
func (n *Network) ProbabilityUncompiledBudget(ctx context.Context, evt Event, b Budget) (float64, error) {
	return n.probabilityUncompiled(ctx, evt, b)
}

// probability answers P(evt) through a plan compiled for this one call.
// Results are bit-for-bit identical to probabilityUncompiled — the plan
// replays the same floating-point operations in the same order. Callers
// that answer many events of one shape compile once (Compile) and keep
// the plan.
func (n *Network) probability(ctx context.Context, evt Event, budget Budget) (float64, error) {
	if err := n.validateEvent(evt); err != nil {
		return 0, err
	}
	return n.Compile(evt).Probability(ctx, evt, budget)
}

func (n *Network) validateEvent(evt Event) error {
	for v, set := range evt {
		if v < 0 || v >= len(n.vars) {
			return fmt.Errorf("bayesnet: event references unknown variable %d", v)
		}
		if len(set) == 0 {
			return fmt.Errorf("bayesnet: event on %s has empty value set", n.vars[v].Name)
		}
		for _, val := range set {
			if val < 0 || int(val) >= n.vars[v].Card {
				return fmt.Errorf("bayesnet: event value %d out of domain for %s", val, n.vars[v].Name)
			}
		}
	}
	return nil
}

func (n *Network) probabilityUncompiled(ctx context.Context, evt Event, budget Budget) (float64, error) {
	if len(evt) == 0 {
		return 1, nil
	}
	if err := n.validateEvent(evt); err != nil {
		return 0, err
	}

	closure := n.ancestralClosure(evt)
	// Single-value (equality) evidence clamps the variable and removes its
	// dimension from every factor — the big inference win for the equality
	// selects that dominate workloads. Multi-value (range/IN) evidence
	// keeps the dimension and zeroes rejected values.
	fixed := make(map[int]int32)
	restricted := make(map[int]map[int32]bool)
	for v, set := range evt {
		if len(set) == 1 {
			fixed[v] = set[0]
			continue
		}
		accept := make(map[int32]bool, len(set))
		for _, val := range set {
			accept[val] = true
		}
		restricted[v] = accept
	}
	factors := make([]*factor.Factor, 0, len(closure))
	for _, v := range closure {
		f := n.Factor(v)
		for _, u := range f.Vars {
			if val, ok := fixed[u]; ok {
				f = f.Fix(u, val)
			} else if accept, ok := restricted[u]; ok && u == v {
				f = f.Restrict(u, accept)
			}
		}
		factors = append(factors, f)
	}

	elim := make([]int, 0, len(closure))
	for _, v := range closure {
		if _, ok := fixed[v]; !ok {
			elim = append(elim, v)
		}
	}
	_, sp := obs.Start(ctx, "infer")
	if err := faults.Inject("bayesnet.infer"); err != nil {
		sp.Set(obs.Str("injected", err.Error()))
		sp.End()
		return 0, err
	}
	order := minFillOrder(elim, factors, n)
	var stats elimStats
	var g *guard
	if budget.Enabled() {
		g = &guard{ctx: ctx, budget: budget}
	}
	for _, v := range order {
		if err := ctx.Err(); err != nil {
			sp.Set(obs.Str("interrupted", err.Error()))
			sp.End()
			return 0, fmt.Errorf("bayesnet: inference interrupted: %w", err)
		}
		var err error
		factors, err = eliminate(factors, v, &stats, g)
		if err != nil {
			sp.Set(obs.Str("refused", err.Error()), obs.Int("max_cells", stats.maxCells))
			sp.End()
			return 0, err
		}
	}
	p := 1.0
	for _, f := range factors {
		p *= f.Sum()
	}
	if sp != nil {
		sp.Set(
			obs.Int("closure", len(closure)),
			obs.Int("clamped", len(fixed)),
			obs.Int("eliminated", len(order)),
			obs.Int("products", stats.products),
			obs.Int("max_cells", stats.maxCells),
		)
		sp.End()
	}
	return p, nil
}

// elimStats aggregates the work a variable elimination performed: how many
// factor products ran and the largest intermediate table built. They feed
// the "infer" trace span, making elimination-order quality visible per
// query (paper §5.3 attributes estimation cost to exactly this).
type elimStats struct {
	products int
	maxCells int
}

// ancestralClosure returns the event variables plus all their ancestors, in
// ascending id order.
func (n *Network) ancestralClosure(evt Event) []int {
	seen := make(map[int]bool, len(evt))
	var stack []int
	for v := range evt {
		if !seen[v] {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range n.parents[v] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// minFillOrder greedily orders closure by fewest fill-in edges in the
// factor interaction graph, breaking ties by smaller intermediate-factor
// size, then by id for determinism.
func minFillOrder(closure []int, factors []*factor.Factor, n *Network) []int {
	adj := make(map[int]map[int]bool, len(closure))
	touch := func(v int) map[int]bool {
		m, ok := adj[v]
		if !ok {
			m = make(map[int]bool)
			adj[v] = m
		}
		return m
	}
	for _, v := range closure {
		touch(v)
	}
	for _, f := range factors {
		for _, a := range f.Vars {
			m := touch(a)
			for _, b := range f.Vars {
				if a != b {
					m[b] = true
				}
			}
		}
	}
	remaining := append([]int(nil), closure...)
	out := make([]int, 0, len(closure))
	for len(remaining) > 0 {
		best, bestFill, bestSize := -1, 1<<62, 1<<62
		for _, v := range remaining {
			fill := 0
			size := n.vars[v].Card
			nbrs := make([]int, 0, len(adj[v]))
			for u := range adj[v] {
				nbrs = append(nbrs, u)
				size *= n.vars[u].Card
				if size > 1<<40 {
					size = 1 << 40
				}
			}
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					if !adj[nbrs[i]][nbrs[j]] {
						fill++
					}
				}
			}
			if fill < bestFill || (fill == bestFill && size < bestSize) ||
				(fill == bestFill && size == bestSize && v < best) {
				best, bestFill, bestSize = v, fill, size
			}
		}
		out = append(out, best)
		// Connect best's neighbours (the fill edges) and remove best.
		nbrs := make([]int, 0, len(adj[best]))
		for u := range adj[best] {
			nbrs = append(nbrs, u)
		}
		for i := 0; i < len(nbrs); i++ {
			m := touch(nbrs[i])
			for j := 0; j < len(nbrs); j++ {
				if i != j {
					m[nbrs[j]] = true
				}
			}
		}
		for _, u := range nbrs {
			delete(adj[u], best)
		}
		delete(adj, best)
		for i, v := range remaining {
			if v == best {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return out
}

// guard is the optional resource discipline of one elimination: the budget
// every factor product is checked against before allocating, and the
// context whose deadline is re-checked between products (a single variable
// can chain several large products, so the per-variable check alone reacts
// too slowly).
type guard struct {
	ctx    context.Context
	budget Budget
}

// admit checks whether a factor of the given shape fits the budget.
func (g *guard) admit(width, cells int) error {
	if err := g.ctx.Err(); err != nil {
		return fmt.Errorf("bayesnet: inference interrupted: %w", err)
	}
	b := g.budget
	if (b.MaxCells > 0 && cells > b.MaxCells) || (b.MaxWidth > 0 && width > b.MaxWidth) {
		return &BudgetError{Cells: cells, MaxCells: b.MaxCells, Width: width, MaxWidth: b.MaxWidth}
	}
	return nil
}

// eliminate multiplies all factors whose scope contains v and sums v out,
// returning the updated factor list. stats, when non-nil, accumulates the
// products performed and the peak intermediate size. A non-nil guard vets
// every product before it allocates; the unguarded path pays only a nil
// check per product.
func eliminate(factors []*factor.Factor, v int, stats *elimStats, g *guard) ([]*factor.Factor, error) {
	out := factors[:0]
	var prod *factor.Factor
	for _, f := range factors {
		contains := false
		for _, x := range f.Vars {
			if x == v {
				contains = true
				break
			}
		}
		if !contains {
			out = append(out, f)
			continue
		}
		if prod == nil {
			prod = f
		} else {
			if g != nil {
				if err := g.admit(factor.ProductSize(prod, f)); err != nil {
					return nil, err
				}
			}
			prod = factor.Product(prod, f)
			if stats != nil {
				stats.products++
				if c := prod.Size(); c > stats.maxCells {
					stats.maxCells = c
				}
			}
		}
	}
	if prod != nil {
		out = append(out, prod.SumOut(v))
	}
	return out, nil
}
