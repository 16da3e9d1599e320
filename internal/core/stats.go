package core

import (
	"fmt"

	"prmsel/internal/dataset"
	"prmsel/internal/learn"
)

// ModelStats is the model's complete sufficient statistics in
// incrementally-maintainable form — the structure that turns parameter
// maintenance (paper §6) into an O(delta) update instead of a rescan.
//
// Attribute variables keep one learn.Stats contingency each: one
// observation per row, join-indicator parents read as constant true and
// cross-table parents resolved through the foreign key, exactly as the
// scan-based refit streams them. An insert touches one cell.
//
// Join indicators decompose into three maintainable pieces: the
// true-pair contingency over the full parent configuration (each row of
// the referencing table contributes one joined pair), and the two
// per-side contingencies whose product gives the R×S pair total per
// configuration. The false counts — which name every pair in the cross
// product and so cannot be maintained directly — are derived at refit
// time as (from × to) − true per configuration, in time proportional to
// the number of occupied side cells, not |R|·|S|.
//
// Inserts compose cleanly under referential integrity: a new row of the
// referencing table adds one true pair and one from-side cell; a new row
// of the referenced table adds one to-side cell and no true pair, because
// no existing row references it yet. The statistics are append-oriented
// at this level (the relational write path has no deletes — a deleted row
// would invalidate row-index foreign keys); set-level deletes live in
// learn.Stats.ApplyDelta for the non-relational case.
//
// All maintained weights are integer-valued and far below 2^53, so the
// derived counts — and therefore the refit divisions — are bit-for-bit
// identical to what a scratch rescan produces. RefitFromStats is the
// cheap half of the closed adaptive loop; the differential tests pin the
// equality.
type ModelStats struct {
	m     *PRM
	attr  []*learn.Stats // indexed by var id; nil for join indicators
	joins []*joinStats   // indexed by var id; nil for attributes
	rows  map[string]int64
}

// joinStats is the decomposed contingency of one join indicator.
type joinStats struct {
	cards     []int // full counts dimensions: [2, parent cards...]
	truePairs *learn.Stats
	from, to  *sideStats
}

// sideStats is one side's marginal contingency: rows of one table grouped
// by the join parents that live on that side.
type sideStats struct {
	idxs  []int // positions in the parent list on this side
	cards []int // cardinalities of those parents
	cells map[uint64]float64
}

func newSideStats(idxs []int, cards []int) *sideStats {
	return &sideStats{idxs: idxs, cards: cards, cells: make(map[uint64]float64)}
}

// key packs this side's parent values (aligned with idxs) mixed-radix.
func (s *sideStats) key(vals []int32) uint64 {
	var k, stride uint64 = 0, 1
	for i, v := range vals {
		k += uint64(v) * stride
		stride *= uint64(s.cards[i])
	}
	return k
}

func (s *sideStats) unpack(key uint64, vals []int32) {
	for i, card := range s.cards {
		vals[i] = int32(key % uint64(card))
		key /= uint64(card)
	}
}

func (s *sideStats) add(vals []int32, w float64) {
	s.cells[s.key(vals)] += w
}

// BuildStats scans db once and returns the model's full sufficient
// statistics. The database must match the schema the model was learned
// from; it is the scan ApplyInsert makes unnecessary afterwards.
func (m *PRM) BuildStats(db *dataset.Database) (*ModelStats, error) {
	if err := m.checkSchema(db); err != nil {
		return nil, err
	}
	st := &ModelStats{
		m:     m,
		attr:  make([]*learn.Stats, len(m.vars)),
		joins: make([]*joinStats, len(m.vars)),
		rows:  make(map[string]int64),
	}
	for _, tn := range db.TableNames() {
		st.rows[tn] = int64(db.Table(tn).Len())
	}
	for id, v := range m.vars {
		if v.Kind == AttrVar {
			cards := make([]int, 1+len(m.parents[id]))
			cards[0] = v.Card
			for i, p := range m.parents[id] {
				cards[i+1] = m.vars[p].Card
			}
			s := learn.NewStats(cards)
			vals := make([]int32, len(cards))
			err := m.forEachSample(db, id, func(smp sample) {
				vals[0] = smp.child
				copy(vals[1:], smp.parents)
				s.Add(vals, smp.w)
			})
			if err != nil {
				return nil, err
			}
			st.attr[id] = s
			continue
		}
		js, err := m.buildJoinStats(db, id)
		if err != nil {
			return nil, err
		}
		st.joins[id] = js
	}
	return st, nil
}

// buildJoinStats scans the two tables of join indicator id.
func (m *PRM) buildJoinStats(db *dataset.Database, id int) (*joinStats, error) {
	v := m.vars[id]
	parents := m.parents[id]
	t := db.Table(v.Table)
	ref := db.Table(v.Ref)
	refs := t.FKCol(t.FKIndex(v.FK))

	cards := make([]int, 1+len(parents))
	cards[0] = 2
	for i, p := range parents {
		cards[i+1] = m.vars[p].Card
	}
	js := &joinStats{cards: cards, truePairs: learn.NewStats(cards)}
	var fromIdx, toIdx []int
	var fromCards, toCards []int
	for i, p := range parents {
		pv := m.vars[p]
		switch pv.Table {
		case v.Table:
			fromIdx = append(fromIdx, i)
			fromCards = append(fromCards, pv.Card)
		case v.Ref:
			toIdx = append(toIdx, i)
			toCards = append(toCards, pv.Card)
		default:
			return nil, fmt.Errorf("core: join indicator %s parent %s outside its tables", v.Name(), pv.Name())
		}
	}
	js.from = newSideStats(fromIdx, fromCards)
	js.to = newSideStats(toIdx, toCards)

	// True pairs and the from-side contingency: one scan of the
	// referencing table.
	vals := make([]int32, len(cards))
	side := make([]int32, len(fromIdx))
	for r := 0; r < t.Len(); r++ {
		vals[0] = JoinTrue
		for i, p := range parents {
			pv := m.vars[p]
			if pv.Table == v.Table {
				vals[i+1] = t.Col(t.AttrIndex(pv.Attr))[r]
			} else {
				vals[i+1] = ref.Col(ref.AttrIndex(pv.Attr))[refs[r]]
			}
		}
		js.truePairs.Add(vals, 1)
		for i, pi := range fromIdx {
			side[i] = vals[pi+1]
		}
		js.from.add(side, 1)
	}
	// To-side contingency: one scan of the referenced table.
	side = make([]int32, len(toIdx))
	for r := 0; r < ref.Len(); r++ {
		for i, pi := range toIdx {
			p := parents[pi]
			side[i] = ref.Col(ref.AttrIndex(m.vars[p].Attr))[r]
		}
		js.to.add(side, 1)
	}
	return js, nil
}

// ApplyInsert folds one just-appended row of the named table into the
// statistics. It must be called after the row is in db (the append-then-
// apply discipline), so foreign-key partners resolve through the live
// columns. Weight bookkeeping is O(number of model variables touching the
// table), independent of table sizes.
func (st *ModelStats) ApplyInsert(db *dataset.Database, table string, row int) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("core: stats: unknown table %q", table)
	}
	if row < 0 || row >= t.Len() {
		return fmt.Errorf("core: stats: table %s row %d out of range [0,%d)", table, row, t.Len())
	}
	m := st.m
	for id, v := range m.vars {
		switch {
		case v.Kind == AttrVar && v.Table == table:
			s := st.attr[id]
			vals := make([]int32, 1+len(m.parents[id]))
			if err := m.attrRowObs(db, id, row, vals); err != nil {
				return err
			}
			s.Add(vals, 1)
		case v.Kind == JoinVar && v.Table == table:
			if err := st.joins[id].applyFromInsert(m, db, id, row); err != nil {
				return err
			}
		case v.Kind == JoinVar && v.Ref == table:
			st.joins[id].applyToInsert(m, db, id, row)
		}
	}
	st.rows[table]++
	return nil
}

// attrRowObs fills vals (child first, then parents in model order) with
// attribute variable id's observation at row r — the single-row form of
// forEachSample's attribute path.
func (m *PRM) attrRowObs(db *dataset.Database, id, r int, vals []int32) error {
	v := m.vars[id]
	t := db.Table(v.Table)
	vals[0] = t.Col(t.AttrIndex(v.Attr))[r]
	for i, p := range m.parents[id] {
		pv := m.vars[p]
		switch {
		case pv.Kind == JoinVar:
			vals[i+1] = JoinTrue
		case pv.Table == v.Table:
			vals[i+1] = t.Col(t.AttrIndex(pv.Attr))[r]
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
			vals[i+1] = ref.Col(ref.AttrIndex(pv.Attr))[t.FKCol(fi)[r]]
		}
	}
	return nil
}

// applyFromInsert folds one new referencing-table row: one true pair with
// its join partner, one from-side cell.
func (js *joinStats) applyFromInsert(m *PRM, db *dataset.Database, id, row int) error {
	v := m.vars[id]
	parents := m.parents[id]
	t := db.Table(v.Table)
	ref := db.Table(v.Ref)
	sRow := t.FKCol(t.FKIndex(v.FK))[row]
	vals := make([]int32, 1+len(parents))
	vals[0] = JoinTrue
	for i, p := range parents {
		pv := m.vars[p]
		if pv.Table == v.Table {
			vals[i+1] = t.Col(t.AttrIndex(pv.Attr))[row]
		} else {
			vals[i+1] = ref.Col(ref.AttrIndex(pv.Attr))[sRow]
		}
	}
	js.truePairs.Add(vals, 1)
	side := make([]int32, len(js.from.idxs))
	for i, pi := range js.from.idxs {
		side[i] = vals[pi+1]
	}
	js.from.add(side, 1)
	return nil
}

// applyToInsert folds one new referenced-table row: one to-side cell. No
// true pair — under the append discipline nothing references it yet.
func (js *joinStats) applyToInsert(m *PRM, db *dataset.Database, id, row int) {
	v := m.vars[id]
	ref := db.Table(v.Ref)
	side := make([]int32, len(js.to.idxs))
	for i, pi := range js.to.idxs {
		p := m.parents[id][pi]
		side[i] = ref.Col(ref.AttrIndex(m.vars[p].Attr))[row]
	}
	js.to.add(side, 1)
}

// derive materializes the join indicator's full contingency: the true
// pairs plus, per occupied (from, to) configuration pair, the non-joining
// remainder of the cross product.
func (js *joinStats) derive() *learn.Counts {
	c := learn.NewCounts(js.cards)
	tp := js.truePairs.Counts()
	for k, w := range tp.Cells {
		c.AddKey(k, w)
	}
	vals := make([]int32, len(js.cards))
	fromVals := make([]int32, len(js.from.idxs))
	toVals := make([]int32, len(js.to.idxs))
	for fk, fn := range js.from.cells {
		js.from.unpack(fk, fromVals)
		for tk, tn := range js.to.cells {
			js.to.unpack(tk, toVals)
			for i, pi := range js.from.idxs {
				vals[pi+1] = fromVals[i]
			}
			for i, pi := range js.to.idxs {
				vals[pi+1] = toVals[i]
			}
			total := fn * tn
			vals[0] = JoinTrue
			trueN := tp.Cells[tp.Key(vals)]
			if falseN := total - trueN; falseN > 0 {
				vals[0] = JoinFalse
				c.Add(vals, falseN)
			}
		}
	}
	return c
}

// Rows reports the maintained row count of one table.
func (st *ModelStats) Rows(table string) int64 { return st.rows[table] }

// RefitFromStats re-estimates every CPD's parameters from the maintained
// statistics, keeping the structure fixed — the O(delta-derived) twin of
// RefitParameters: no table scan, cost proportional to occupied contingency
// cells. Like the scan-based refit it clones the current epoch's CPDs,
// refits the clones, and atomically publishes a fresh epoch (which carries
// the refreshed table sizes and an empty compiled-query cache); readers
// are never blocked, and a failed refit publishes nothing.
func (m *PRM) RefitFromStats(st *ModelStats) error {
	if st.m != m {
		return fmt.Errorf("core: RefitFromStats: statistics belong to a different model")
	}
	m.refitMu.Lock()
	defer m.refitMu.Unlock()
	cur := m.params()
	next := m.cloneEpochLocked(cur)
	for id := range m.vars {
		var c *learn.Counts
		if s := st.attr[id]; s != nil {
			c = s.Counts()
		} else {
			c = st.joins[id].derive()
		}
		if err := learn.RefitCPD(next.cpds[id], c); err != nil {
			return fmt.Errorf("core: refit %s: %w", m.vars[id].Name(), err)
		}
	}
	for tn, n := range st.rows {
		next.tableSize[tn] = n
	}
	m.publish(cur, next)
	return nil
}
