package core

import (
	"fmt"
	"math"

	"prmsel/internal/bayesnet"
	"prmsel/internal/dataset"
)

// Incremental maintenance (paper §6): as the database changes, the model's
// parameters can be re-estimated cheaply with the structure kept fixed;
// the model's log-likelihood on the current data serves as the drift
// signal that triggers a full structure relearn.

// RefitParameters re-estimates every CPD's parameters from db, keeping the
// dependency structure fixed: tree CPDs keep their splits and get fresh
// leaf distributions, table CPDs get fresh per-configuration distributions
// (configurations unseen in the new data keep their old estimates), and
// join indicators get fresh join-rate statistics. Table sizes and the
// compiled-query cache are refreshed. The database must have the same
// schema the model was learned from.
//
// RefitParameters never mutates the published parameters: it clones every
// CPD, refits the clones, and publishes them as a fresh epoch in one
// atomic pointer swap. Concurrent EstimateCount calls are never stalled —
// each finishes against whichever epoch it loaded at entry — and the swap
// itself invalidates the CPD tables and compiled queries, because the new
// epoch starts with none. A refit that fails partway publishes nothing,
// leaving the old parameters intact.
func (m *PRM) RefitParameters(db *dataset.Database) error {
	if err := m.checkSchema(db); err != nil {
		return err
	}
	m.refitMu.Lock()
	defer m.refitMu.Unlock()
	cur := m.params()
	next := m.cloneEpochLocked(cur)
	for id := range m.vars {
		if err := m.refitVar(db, next, id); err != nil {
			return err
		}
	}
	for _, tn := range db.TableNames() {
		next.tableSize[tn] = int64(db.Table(tn).Len())
	}
	m.publish(cur, next)
	return nil
}

// cloneEpochLocked derives a private, mutable successor of cur: deep CPD
// copies, a copied table-size map, and no tables or compiled queries.
// Caller holds refitMu.
func (m *PRM) cloneEpochLocked(cur *paramEpoch) *paramEpoch {
	cpds := make([]bayesnet.CPD, len(cur.cpds))
	for id, c := range cur.cpds {
		cpds[id] = bayesnet.CloneCPD(c)
	}
	sizes := make(map[string]int64, len(cur.tableSize))
	for tn, n := range cur.tableSize {
		sizes[tn] = n
	}
	return newParamEpoch(cpds, sizes)
}

// LogLikelihood evaluates the model's log-likelihood (nats) on db under the
// *current* parameters — the score whose decay signals that the structure
// should be relearned (paper §6). Attribute variables contribute one term
// per row; join indicators one term per tuple pair, computed in aggregate.
func (m *PRM) LogLikelihood(db *dataset.Database) (float64, error) {
	ep := m.params()
	if err := m.checkSchema(db); err != nil {
		return 0, err
	}
	var total float64
	for id := range m.vars {
		ll, err := m.varLogLik(db, ep, id)
		if err != nil {
			return 0, err
		}
		total += ll
	}
	return total, nil
}

// checkSchema verifies db carries every table, attribute and foreign key
// the model's variables reference, with matching cardinalities.
func (m *PRM) checkSchema(db *dataset.Database) error {
	if err := db.Validate(); err != nil {
		return err
	}
	for _, v := range m.vars {
		t := db.Table(v.Table)
		if t == nil {
			return fmt.Errorf("core: database lacks table %q", v.Table)
		}
		switch v.Kind {
		case AttrVar:
			ai := t.AttrIndex(v.Attr)
			if ai < 0 {
				return fmt.Errorf("core: table %s lacks attribute %q", v.Table, v.Attr)
			}
			if t.Attributes[ai].Card() != v.Card {
				return fmt.Errorf("core: attribute %s.%s has domain size %d, model expects %d",
					v.Table, v.Attr, t.Attributes[ai].Card(), v.Card)
			}
		case JoinVar:
			if t.FKIndex(v.FK) < 0 {
				return fmt.Errorf("core: table %s lacks foreign key %q", v.Table, v.FK)
			}
		}
	}
	return nil
}

// sample is one sufficient-statistics observation of a variable: the child
// value, the parent values aligned with the model's (expanded) parent list,
// and a weight (1 per row for attributes; pair counts for join indicators).
type sample struct {
	child   int32
	parents []int32
	w       float64
}

// forEachSample streams the observations of variable id from db.
func (m *PRM) forEachSample(db *dataset.Database, id int, fn func(s sample)) error {
	v := m.vars[id]
	t := db.Table(v.Table)
	parents := m.parents[id]

	if v.Kind == JoinVar {
		return m.forEachJoinSample(db, id, fn)
	}

	childCol := t.Col(t.AttrIndex(v.Attr))
	// Resolve parents: join indicators read as constant true (attribute
	// rows are exactly the joined pairs); same-table and cross-table
	// attribute parents read through columns/foreign keys.
	type accessor struct {
		constant int32
		col      []int32
		refs     []int32
	}
	acc := make([]accessor, len(parents))
	for i, p := range parents {
		pv := m.vars[p]
		switch {
		case pv.Kind == JoinVar:
			acc[i] = accessor{constant: JoinTrue, col: nil}
		case pv.Table == v.Table:
			acc[i] = accessor{constant: -1, col: t.Col(t.AttrIndex(pv.Attr))}
		default:
			fi := -1
			for j, fk := range t.ForeignKeys {
				if fk.To == pv.Table {
					fi = j
					break
				}
			}
			if fi < 0 {
				return fmt.Errorf("core: %s has no foreign key to %s", v.Table, pv.Table)
			}
			ref := db.Table(pv.Table)
			acc[i] = accessor{constant: -1, col: ref.Col(ref.AttrIndex(pv.Attr)), refs: t.FKCol(fi)}
		}
	}
	s := sample{parents: make([]int32, len(parents)), w: 1}
	for r := 0; r < t.Len(); r++ {
		s.child = childCol[r]
		for i := range acc {
			switch {
			case acc[i].col == nil:
				s.parents[i] = acc[i].constant
			case acc[i].refs == nil:
				s.parents[i] = acc[i].col[r]
			default:
				s.parents[i] = acc[i].col[acc[i].refs[r]]
			}
		}
		fn(s)
	}
	return nil
}

// forEachJoinSample streams a join indicator's pair observations: the
// joined pairs (one scan of the referencing table) and the aggregated
// non-joining remainder per parent configuration.
func (m *PRM) forEachJoinSample(db *dataset.Database, id int, fn func(s sample)) error {
	v := m.vars[id]
	t := db.Table(v.Table)
	ref := db.Table(v.Ref)
	refs := t.FKCol(t.FKIndex(v.FK))
	parents := m.parents[id]

	trueCounts := make(map[string]*sample)
	key := make([]byte, len(parents))
	pv := make([]int32, len(parents))
	for r := 0; r < t.Len(); r++ {
		for i, p := range parents {
			par := m.vars[p]
			if par.Table == v.Table {
				pv[i] = t.Col(t.AttrIndex(par.Attr))[r]
			} else {
				pv[i] = ref.Col(ref.AttrIndex(par.Attr))[refs[r]]
			}
			key[i] = byte(pv[i])
		}
		k := string(key)
		c, ok := trueCounts[k]
		if !ok {
			c = &sample{child: JoinTrue, parents: append([]int32(nil), pv...)}
			trueCounts[k] = c
		}
		c.w++
	}
	for _, c := range trueCounts {
		fn(*c)
	}
	// Pair totals per configuration from the two side contingencies.
	fromCells := sideContingency(t, parents, m.vars, v.Table)
	toCells := sideContingency(ref, parents, m.vars, v.Ref)
	for _, fc := range fromCells {
		for _, tc := range toCells {
			for i := range parents {
				switch {
				case fc.vals[i] >= 0:
					pv[i] = fc.vals[i]
					key[i] = byte(fc.vals[i])
				default:
					pv[i] = tc.vals[i]
					key[i] = byte(tc.vals[i])
				}
			}
			total := fc.n * tc.n
			var trueN float64
			if c, ok := trueCounts[string(key)]; ok {
				trueN = c.w
			}
			if falseN := total - trueN; falseN > 0 {
				fn(sample{child: JoinFalse, parents: append([]int32(nil), pv...), w: falseN})
			}
		}
	}
	return nil
}

// refitVar re-estimates variable id's CPD parameters into next — the
// private clone epoch being built — never the published one.
func (m *PRM) refitVar(db *dataset.Database, next *paramEpoch, id int) error {
	v := m.vars[id]
	switch cpd := next.cpds[id].(type) {
	case *bayesnet.TreeCPD:
		// Accumulate child counts per leaf, then replace leaf dists.
		counts := make(map[*bayesnet.TreeNode][]float64)
		err := m.forEachSample(db, id, func(s sample) {
			leaf := cpd.Leaf(s.parents)
			dist := counts[leaf]
			if dist == nil {
				dist = make([]float64, v.Card)
				counts[leaf] = dist
			}
			dist[s.child] += s.w
		})
		if err != nil {
			return err
		}
		for leaf, dist := range counts {
			var total float64
			for _, w := range dist {
				total += w
			}
			if total <= 0 {
				continue
			}
			for x := range dist {
				dist[x] /= total
			}
			leaf.Dist = dist
		}
		return nil
	case *bayesnet.TableCPD:
		counts := make(map[int][]float64)
		err := m.forEachSample(db, id, func(s sample) {
			cfg := cpd.Config(s.parents)
			dist := counts[cfg]
			if dist == nil {
				dist = make([]float64, v.Card)
				counts[cfg] = dist
			}
			dist[s.child] += s.w
		})
		if err != nil {
			return err
		}
		for cfg, dist := range counts {
			var total float64
			for _, w := range dist {
				total += w
			}
			if total <= 0 {
				continue
			}
			base := cfg * cpd.ChildCard
			for x := range dist {
				cpd.Dist[base+x] = dist[x] / total
			}
		}
		return nil
	default:
		return fmt.Errorf("core: refit: unsupported CPD kind for %s", v.Name())
	}
}

// varLogLik evaluates Σ w·ln P(child | parents) for variable id on db
// under the current CPD. Observations whose probability is zero under the
// model contribute a large finite penalty rather than -Inf, so a drifted
// model scores badly but comparably.
func (m *PRM) varLogLik(db *dataset.Database, ep *paramEpoch, id int) (float64, error) {
	const zeroPenalty = -30 // ≈ ln(1e-13)
	cpd := ep.cpds[id]
	var total float64
	err := m.forEachSample(db, id, func(s sample) {
		p := cpd.Prob(s.child, s.parents)
		if p > 0 {
			total += s.w * math.Log(p)
		} else {
			total += s.w * zeroPenalty
		}
	})
	return total, err
}
