package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"prmsel/internal/bayesnet"
	"prmsel/internal/obs"
	"prmsel/internal/query"
)

// EstimateCount estimates the result size of a select/keyjoin query: it
// upward-closes the query (Def. 3.3), unrolls the query-evaluation Bayesian
// network over the closure's tuple variables (Def. 3.5), computes the
// probability of the selection event conjoined with all join indicators
// being true, and scales by the product of the closure tables' sizes.
// Non-key equality joins (paper §6) are handled by decomposition: the
// query is summed over the possible shared values of each joined
// attribute pair.
//
// EstimateCount is safe for concurrent callers (each with its own query);
// it reads one immutable parameter epoch for the whole estimate, so an
// in-flight RefitParameters — which publishes a fresh epoch rather than
// mutating the current one — never changes CPDs underneath it. The read
// path takes no locks.
func (m *PRM) EstimateCount(q *query.Query) (float64, error) {
	return m.EstimateCountCtx(context.Background(), q)
}

// EstimateCountCtx is EstimateCount under a context. A span-carrying
// context (internal/obs) records the estimate as a span tree — shape-cache
// lookup / closure build, then variable elimination — and a cancelled or
// expired context stops inference between elimination steps, so a caller
// that has gone away (an HTTP request, typically) does not keep burning
// CPU on factor products.
func (m *PRM) EstimateCountCtx(ctx context.Context, q *query.Query) (float64, error) {
	// Check once up front: equality-only queries clamp every variable and
	// skip elimination entirely, so the per-step checks would never fire.
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: estimate interrupted: %w", err)
	}
	ctx, sp := obs.Start(ctx, "estimate")
	est, err := m.estimateGuarded(ctx, m.params(), q, evalOpts{})
	if sp != nil {
		sp.Set(obs.Int("tables", len(q.Vars)), obs.Int("preds", len(q.Preds)),
			obs.Int("joins", len(q.Joins)), obs.Float("estimate", est))
		sp.End()
	}
	return est, err
}

// evalOpts selects how one estimate evaluates its event probabilities:
// exact elimination (optionally resource-guarded) or likelihood-weighting
// approximation. The zero value is unguarded exact inference — the
// behaviour every pre-existing caller gets.
type evalOpts struct {
	// budget bounds exact elimination (zero = unlimited).
	budget bayesnet.Budget
	// approx switches event probabilities to likelihood weighting.
	approx  bool
	samples int
	rng     *rand.Rand
	// uncompiled forces exact inference through the plan-free elimination
	// path; used by differential tests and the cached-vs-uncached
	// benchmark comparison.
	uncompiled bool
}

// estimateGuarded is estimateCount behind the panic boundary: an internal
// invariant violation (a corrupt model, an adversarial query shape nobody
// anticipated) surfaces as a typed *InternalError instead of unwinding
// into the caller — the serve layer depends on this to keep one poisoned
// model from killing the process.
func (m *PRM) estimateGuarded(ctx context.Context, ep *paramEpoch, q *query.Query, ev evalOpts) (est float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			est = 0
			err = &InternalError{Op: "estimate", Value: r, Stack: debug.Stack()}
		}
	}()
	return m.estimateCount(ctx, ep, q, ev)
}

// estimateCount evaluates one estimate against a fixed parameter epoch;
// every internal caller passes the epoch it loaded at entry so an entire
// request (including non-key-join sums and every degradation tier) reads one
// consistent set of parameters.
func (m *PRM) estimateCount(ctx context.Context, ep *paramEpoch, q *query.Query, ev evalOpts) (float64, error) {
	if len(q.NonKeyJoins) > 0 {
		return m.estimateNonKeyJoin(ctx, ep, q, ev)
	}
	p, em, err := m.eventProbability(ctx, ep, q, ev)
	if err != nil {
		return 0, err
	}
	return p * em.sizeProd, nil
}

// EstimateSelectivity returns the estimated fraction of the cross product
// of the query's tables that satisfies the query.
func (m *PRM) EstimateSelectivity(q *query.Query) (float64, error) {
	ep := m.params()
	count, err := m.estimateGuarded(context.Background(), ep, q, evalOpts{})
	if err != nil {
		return 0, err
	}
	var queryProduct float64 = 1
	for _, t := range q.Vars {
		queryProduct *= float64(ep.tableSize[t])
	}
	if queryProduct == 0 {
		return 0, nil
	}
	return count / queryProduct, nil
}

// estimateNonKeyJoin rewrites each non-key join L.A = R.B into a pair of
// equality predicates sharing one value slot, and sums the keyjoin-only
// estimate over every assignment of the slots — the §6 strategy of summing
// over the possible values of the joined attributes. Joined attribute
// pairs must share their domain encoding; values beyond the smaller domain
// cannot match and are not enumerated.
func (m *PRM) estimateNonKeyJoin(ctx context.Context, ep *paramEpoch, q *query.Query, ev evalOpts) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	ctx, sp := obs.Start(ctx, "nonkeyjoin")
	defer sp.End()
	base := q.Clone()
	base.NonKeyJoins = nil
	vals := make([]int32, len(q.NonKeyJoins))
	cards := make([]int, len(q.NonKeyJoins))
	for i, j := range q.NonKeyJoins {
		lv := m.AttrVarID(q.Vars[j.LeftVar], j.LeftAttr)
		rv := m.AttrVarID(q.Vars[j.RightVar], j.RightAttr)
		if lv < 0 {
			return 0, fmt.Errorf("core: table %s has no attribute %q", q.Vars[j.LeftVar], j.LeftAttr)
		}
		if rv < 0 {
			return 0, fmt.Errorf("core: table %s has no attribute %q", q.Vars[j.RightVar], j.RightAttr)
		}
		cards[i] = m.vars[lv].Card
		if c := m.vars[rv].Card; c < cards[i] {
			cards[i] = c
		}
		slot := vals[i : i+1]
		base.Preds = append(base.Preds,
			query.Pred{Var: j.LeftVar, Attr: j.LeftAttr, Values: slot},
			query.Pred{Var: j.RightVar, Attr: j.RightAttr, Values: slot},
		)
	}
	// Each summed term is one full closure evaluation; detach the span so
	// a trace reports one "nonkeyjoin" span with a term count instead of
	// hundreds of identical children. Cancellation still applies per term.
	tctx := obs.Detach(ctx)
	var total float64
	terms := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vals) {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: non-key-join sum interrupted: %w", err)
			}
			p, em, err := m.eventProbability(tctx, ep, base, ev)
			if err != nil {
				return err
			}
			total += p * em.sizeProd
			terms++
			return nil
		}
		for v := 0; v < cards[i]; v++ {
			vals[i] = int32(v)
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, err
	}
	sp.Set(obs.Int("terms", terms))
	return total, nil
}

// EstimateGroupBy approximately answers SELECT attr, COUNT(*) ... GROUP BY
// attr: it returns, for each value of tv's attribute, the estimated result
// size of q restricted to that value (the approximate-query-answering
// application from the paper's introduction). The returned slice indexes by
// value code.
func (m *PRM) EstimateGroupBy(q *query.Query, tv, attr string) ([]float64, error) {
	ep := m.params()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	table, ok := q.Vars[tv]
	if !ok {
		return nil, fmt.Errorf("core: group-by references undeclared variable %q", tv)
	}
	vid := m.AttrVarID(table, attr)
	if vid < 0 {
		return nil, fmt.Errorf("core: table %s has no attribute %q", table, attr)
	}
	grouped := q.Clone()
	slot := []int32{0}
	grouped.Preds = append(grouped.Preds, query.Pred{Var: tv, Attr: attr, Values: slot})
	out := make([]float64, m.vars[vid].Card)
	for v := range out {
		slot[0] = int32(v)
		est, err := m.estimateGuarded(context.Background(), ep, grouped, evalOpts{})
		if err != nil {
			return nil, err
		}
		out[v] = est
	}
	return out, nil
}

// evalBuilder incrementally unrolls the query-evaluation BN's structure.
type evalBuilder struct {
	m *PRM
	// tuple variables of the upward closure: name -> table.
	tupleVars map[string]string
	// joinTo maps (tupleVar, fk) -> referenced tuple variable.
	joinTo map[[2]string]string
	// nodes maps (tupleVar, prm var id) -> BN node id, in creation order.
	nodes map[nodeKey]int
	vars  []bayesnet.Variable
	pars  [][]int
	vids  []int // PRM variable id per node
	evt   bayesnet.Event
	fresh int
}

type nodeKey struct {
	tv  string
	vid int
}

// evalModel is a fully-unrolled query-evaluation BN for one query shape
// (tables, joins, predicated attributes, and whether each predicated node
// carries one value or a set, ignoring the values) with the one plan
// compiled for it. Every query of a suite shares one shape, so the network
// and its plan are built once per parameter epoch and reused.
type evalModel struct {
	net       *bayesnet.Network
	tvs       map[string]string // closure tuple variables -> table
	joinNodes []int             // asserted JoinTrue on every evaluation
	sizeProd  float64
	predNode  []int // node id per query predicate, aligned with q.Preds

	// once compiles plan at the shape's first evaluation; concurrent
	// first evaluations compile it once.
	once sync.Once
	plan *bayesnet.Plan
}

// shapeKey renders a query's core shape: its tuple variables and their
// tables, its joins and its predicated attributes. evidence.key extends
// it into the compiled-query cache key.
func shapeKey(q *query.Query) string {
	var b strings.Builder
	names := q.VarNames()
	for _, tv := range names {
		b.WriteString(tv)
		b.WriteByte('=')
		b.WriteString(q.Vars[tv])
		b.WriteByte(';')
	}
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		joins[i] = j.FromVar + "." + j.FK + ">" + j.ToVar
	}
	sort.Strings(joins)
	for _, j := range joins {
		b.WriteString(j)
		b.WriteByte(';')
	}
	for _, p := range q.Preds {
		b.WriteString(p.Var)
		b.WriteByte('.')
		b.WriteString(p.Attr)
		b.WriteByte(';')
	}
	return b.String()
}

// evidence is a query's selection event before it is placed on network
// nodes: the predicates grouped by the node they constrain — one per
// (tuple variable, attribute) — with each group's accept sets intersected.
type evidence struct {
	// key is the query's full shape: shapeKey, then '=' or '~' per group
	// for one accepted value or a set (an empty set counts as a set).
	key string
	// heads holds each group's first predicate index; vals its sorted
	// accepted values.
	heads []int
	vals  [][]int32
	// vids holds each predicate's PRM variable id.
	vids []int
}

// queryEvidence resolves q's predicates against the schema and builds its
// evidence and cache key.
func (m *PRM) queryEvidence(ep *paramEpoch, q *query.Query) (*evidence, error) {
	for _, table := range q.Vars {
		if _, ok := ep.tableSize[table]; !ok {
			return nil, fmt.Errorf("core: query over unknown table %q", table)
		}
	}
	e := &evidence{vids: make([]int, len(q.Preds))}
	var sets []map[int32]bool // per group
	for i, pred := range q.Preds {
		table := q.Vars[pred.Var]
		vid := m.AttrVarID(table, pred.Attr)
		if vid < 0 {
			return nil, fmt.Errorf("core: table %s has no attribute %q", table, pred.Attr)
		}
		e.vids[i] = vid
		set, err := pred.Accept(m.vars[vid].Card)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		g := 0
		for g < len(e.heads) && (q.Preds[e.heads[g]].Var != pred.Var || q.Preds[e.heads[g]].Attr != pred.Attr) {
			g++
		}
		if g == len(e.heads) {
			e.heads = append(e.heads, i)
			sets = append(sets, set)
			continue
		}
		for v := range sets[g] {
			if !set[v] {
				delete(sets[g], v)
			}
		}
	}
	var b strings.Builder
	b.WriteString(shapeKey(q))
	e.vals = make([][]int32, len(sets))
	for g, set := range sets {
		vals := make([]int32, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		e.vals[g] = vals
		if len(vals) == 1 {
			b.WriteByte('=')
		} else {
			b.WriteByte('~')
		}
	}
	e.key = b.String()
	return e, nil
}

// model returns the evaluation model for the query shape e.key in epoch
// ep, building it on first use; hit reports whether the cache already
// held it. The hit path is lock-free: one atomic load of the epoch's
// query map and a read. A miss builds the network outside any lock and
// inserts it copy-on-write under m.mu; racing builders of the same shape
// keep the first insert.
func (m *PRM) model(ep *paramEpoch, q *query.Query, e *evidence) (em *evalModel, hit bool, err error) {
	if em, ok := (*ep.queries.Load())[e.key]; ok {
		ep.hits.Add(1)
		return em, true, nil
	}

	b := &evalBuilder{
		m:         m,
		tupleVars: make(map[string]string),
		joinTo:    make(map[[2]string]string),
		nodes:     make(map[nodeKey]int),
		evt:       make(bayesnet.Event),
	}
	for tv, table := range q.Vars {
		b.tupleVars[tv] = table
	}

	// Register the query's own joins first so closure reuses them
	// (Def. 3.3: no new tuple variable when one is already present).
	for _, j := range q.Joins {
		table := b.tupleVars[j.FromVar]
		jid := m.JoinVarID(table, j.FK)
		if jid < 0 {
			return nil, false, fmt.Errorf("core: table %s has no foreign key %q", table, j.FK)
		}
		if ref := m.vars[jid].Ref; ref != b.tupleVars[j.ToVar] {
			return nil, false, fmt.Errorf("core: foreign key %s.%s references %s, but %s ranges over %s",
				table, j.FK, ref, j.ToVar, b.tupleVars[j.ToVar])
		}
		key := [2]string{j.FromVar, j.FK}
		if prev, dup := b.joinTo[key]; dup && prev != j.ToVar {
			return nil, false, fmt.Errorf("core: %s.%s joined to two different variables (%s, %s)", j.FromVar, j.FK, prev, j.ToVar)
		}
		b.joinTo[key] = j.ToVar
	}
	for _, j := range q.Joins {
		table := b.tupleVars[j.FromVar]
		node, err := b.need(j.FromVar, m.JoinVarID(table, j.FK))
		if err != nil {
			return nil, false, err
		}
		b.evt[node] = []int32{JoinTrue}
	}
	predNode := make([]int, len(q.Preds))
	for i, pred := range q.Preds {
		node, err := b.need(pred.Var, e.vids[i])
		if err != nil {
			return nil, false, err
		}
		predNode[i] = node
	}

	// Number the nodes in PRM-variable order. The variables of one CPD's
	// scope are distinct, so every node's scope then sorts like its PRM
	// variable's, and its CPD factor has exactly the layout of the epoch's
	// table for that variable: every network of the epoch reads one shared
	// table per CPD.
	order := make([]int, len(b.vars)) // new id -> creation id
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return b.vids[order[i]] < b.vids[order[j]] })
	renum := make([]int, len(order)) // creation id -> new id
	for id, old := range order {
		renum[old] = id
	}
	vars := make([]bayesnet.Variable, len(order))
	vids := make([]int, len(order))
	for id, old := range order {
		vars[id] = b.vars[old]
		vids[id] = b.vids[old]
	}
	em = &evalModel{
		net:      bayesnet.New(vars),
		tvs:      b.tupleVars,
		sizeProd: 1,
		predNode: predNode,
	}
	for id, old := range order {
		pars := make([]int, len(b.pars[old]))
		for i, p := range b.pars[old] {
			pars[i] = renum[p]
		}
		em.net.SetParents(id, pars)
		em.net.SetCPD(id, ep.cpds[vids[id]])
	}
	em.net.SetTables(func(v int) []float64 { return m.table(ep, vids[v]) })
	for i, node := range predNode {
		predNode[i] = renum[node]
	}
	for node := range b.evt {
		em.joinNodes = append(em.joinNodes, renum[node])
	}
	sort.Ints(em.joinNodes)
	for _, table := range b.tupleVars {
		em.sizeProd *= float64(ep.tableSize[table])
	}

	m.mu.Lock()
	old := *ep.queries.Load()
	if prev, ok := old[e.key]; ok {
		// Another builder of the same shape won the insert race; share its
		// network so its plan is compiled once.
		m.mu.Unlock()
		ep.hits.Add(1)
		return prev, true, nil
	}
	next := make(map[string]*evalModel, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[e.key] = em
	ep.queries.Store(&next)
	m.mu.Unlock()
	ep.misses.Add(1)
	return em, false, nil
}

// eventProbability evaluates q's selection event, conjoined with every
// join indicator of its closure being true, in epoch ep, and returns the
// evaluation model that answered (its sizeProd scales the probability to
// a count).
func (m *PRM) eventProbability(ctx context.Context, ep *paramEpoch, q *query.Query, ev evalOpts) (float64, *evalModel, error) {
	if err := q.Validate(); err != nil {
		return 0, nil, err
	}
	e, err := m.queryEvidence(ep, q)
	if err != nil {
		return 0, nil, err
	}
	_, csp := obs.Start(ctx, "closure")
	em, hit, err := m.model(ep, q, e)
	if csp != nil {
		if err == nil {
			csp.Set(obs.Bool("cache_hit", hit), obs.Int("tuple_vars", len(em.tvs)))
		}
		csp.End()
	}
	if err != nil {
		return 0, nil, err
	}
	evt := make(bayesnet.Event, len(em.joinNodes)+len(e.heads))
	for _, node := range em.joinNodes {
		evt[node] = []int32{JoinTrue}
	}
	for g, head := range e.heads {
		if len(e.vals[g]) == 0 {
			return 0, em, nil // contradictory predicates
		}
		evt[em.predNode[head]] = e.vals[g]
	}
	var prob float64
	switch {
	case ev.approx:
		prob, err = em.net.LikelihoodWeightingCtx(ctx, evt, ev.samples, ev.rng)
	case ev.uncompiled:
		prob, err = em.net.ProbabilityUncompiledBudget(ctx, evt, ev.budget)
	default:
		em.once.Do(func() { em.plan = em.net.Compile(evt) })
		prob, err = em.plan.Probability(ctx, evt, ev.budget)
	}
	if err != nil {
		return 0, nil, err
	}
	return prob, em, nil
}

// need returns (creating if necessary) the BN node for PRM variable vid
// instantiated at tuple variable tv, recursively materializing its parents
// and any closure tuple variables they require.
func (b *evalBuilder) need(tv string, vid int) (int, error) {
	key := nodeKey{tv: tv, vid: vid}
	if id, ok := b.nodes[key]; ok {
		return id, nil
	}
	v := b.m.vars[vid]
	id := len(b.vars)
	b.nodes[key] = id
	b.vars = append(b.vars, bayesnet.Variable{Name: tv + ":" + v.Name(), Card: v.Card})
	b.pars = append(b.pars, nil)
	b.vids = append(b.vids, vid)

	parentIDs := make([]int, len(b.m.parents[vid]))
	for i, pid := range b.m.parents[vid] {
		pv := b.m.vars[pid]
		var ptv string
		switch {
		case pv.Table == v.Table:
			// Same-table parent (including the join indicators of v's own
			// table when v is an attribute with cross-table parents).
			ptv = tv
		case v.Kind == JoinVar && pv.Table == v.Ref:
			// Parent on the referenced side of this very join.
			target, err := b.joinTarget(tv, v.Table, v.FK, v.Ref)
			if err != nil {
				return 0, err
			}
			ptv = target
		case v.Kind == AttrVar:
			// Cross-table attribute parent: route through the foreign key
			// whose join indicator accompanies it in the parent list.
			fk := ""
			for _, q := range b.m.parents[vid] {
				qv := b.m.vars[q]
				if qv.Kind == JoinVar && qv.Table == v.Table && qv.Ref == pv.Table {
					fk = qv.FK
					break
				}
			}
			if fk == "" {
				return 0, fmt.Errorf("core: %s has cross-table parent %s without a join indicator", v.Name(), pv.Name())
			}
			target, err := b.joinTarget(tv, v.Table, fk, pv.Table)
			if err != nil {
				return 0, err
			}
			ptv = target
		default:
			return 0, fmt.Errorf("core: cannot place parent %s of %s", pv.Name(), v.Name())
		}
		pnode, err := b.need(ptv, pid)
		if err != nil {
			return 0, err
		}
		parentIDs[i] = pnode
	}
	b.pars[id] = parentIDs
	return id, nil
}

// joinTarget returns the tuple variable that tv's foreign key fk joins to,
// creating a closure variable (and asserting its join indicator true) when
// the query does not already join it.
func (b *evalBuilder) joinTarget(tv, table, fk, refTable string) (string, error) {
	key := [2]string{tv, fk}
	if target, ok := b.joinTo[key]; ok {
		return target, nil
	}
	b.fresh++
	target := fmt.Sprintf("_closure%d", b.fresh)
	b.tupleVars[target] = refTable
	b.joinTo[key] = target
	jid := b.m.JoinVarID(table, fk)
	node, err := b.need(tv, jid)
	if err != nil {
		return "", err
	}
	b.evt[node] = []int32{JoinTrue}
	return target, nil
}

// Explanation describes how an estimate was produced: the upward closure's
// tuple variables (including the ones Def. 3.3 added), the event
// probability, and the size scaling.
type Explanation struct {
	// TupleVars maps every closure tuple variable to its table; names
	// beginning with "_closure" were added by upward closure.
	TupleVars map[string]string
	// Probability is P(selections ∧ all join indicators true).
	Probability float64
	// SizeProduct is the product of the closure tables' sizes.
	SizeProduct float64
	// Estimate = Probability × SizeProduct.
	Estimate float64
	// JoinIndicators lists the BN node names asserted JoinTrue during the
	// evaluation — the query's own joins plus any upward-closure joins.
	JoinIndicators []string
	// Tier names the inference tier that produced the estimate ("exact"
	// here; the serving layer overrides it when the answer it returned
	// came from a degraded tier).
	Tier Tier
}

// Explain estimates q and reports how the number was assembled. Queries
// with non-key joins are not explained (their estimate is a sum of many
// closure evaluations).
func (m *PRM) Explain(q *query.Query) (*Explanation, error) {
	ep := m.params()
	if len(q.NonKeyJoins) > 0 {
		return nil, fmt.Errorf("core: Explain does not support non-key joins")
	}
	p, em, err := m.eventProbability(context.Background(), ep, q, evalOpts{})
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		TupleVars:   make(map[string]string, len(em.tvs)),
		Probability: p,
		SizeProduct: em.sizeProd,
		Estimate:    p * em.sizeProd,
		Tier:        TierExact,
	}
	for tv, table := range em.tvs {
		ex.TupleVars[tv] = table
	}
	for _, node := range em.joinNodes {
		ex.JoinIndicators = append(ex.JoinIndicators, em.net.Var(node).Name)
	}
	return ex, nil
}
