package core

import (
	"fmt"
	"math"
	"slices"

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
// schema the model was learned from. It is BuildStats followed by
// RefitFromStats, so a scan and an incrementally maintained count refit
// identically.
//
// RefitParameters never mutates the published parameters: it clones every
// CPD, refits the clones, and publishes them as a fresh epoch in one
// atomic pointer swap. Concurrent EstimateCount calls are never stalled —
// each finishes against whichever epoch it loaded at entry — and the swap
// itself invalidates the CPD tables and compiled queries, because the new
// epoch starts with none. A refit that fails partway publishes nothing,
// leaving the old parameters intact.
func (m *PRM) RefitParameters(db *dataset.Database) error {
	st, err := m.BuildStats(db)
	if err != nil {
		return err
	}
	return m.RefitFromStats(st)
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
// should be relearned (paper §6). It sums w·ln P(child | parents) over
// every variable's counts (BuildStats), visiting cells in key order so the
// same data always scores the same bits: attribute cells weigh rows, join
// indicator cells tuple pairs. A cell whose probability is zero under the
// model contributes a large finite penalty rather than -Inf, so a drifted
// model scores badly but comparably.
func (m *PRM) LogLikelihood(db *dataset.Database) (float64, error) {
	const zeroPenalty = -30 // ≈ ln(1e-13)
	ep := m.params()
	st, err := m.BuildStats(db)
	if err != nil {
		return 0, err
	}
	var total float64
	for id := range m.vars {
		c := st.counts(id)
		keys := make([]uint64, 0, len(c.Cells))
		for k := range c.Cells {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		vals := make([]int32, len(c.Cards))
		var ll float64
		for _, k := range keys {
			c.Unpack(k, vals)
			if p := ep.cpds[id].Prob(vals[0], vals[1:]); p > 0 {
				ll += c.Cells[k] * math.Log(p)
			} else {
				ll += c.Cells[k] * zeroPenalty
			}
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
