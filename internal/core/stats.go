package core

import (
	"fmt"
	"maps"

	"prmsel/internal/dataset"
	"prmsel/internal/learn"
)

// Sufficient statistics (paper §3.2, §4, §6). Every CPD is learned, refit
// and scored from its (child | parents) counts, and this file is the one
// place that reads them from tables:
//
//   - An attribute observes each row of its table once: its own value, a
//     same-table parent from the row, a parent in another table through
//     the row's first foreign key to that table, and a join-indicator
//     parent as true (the rows are exactly the joined pairs).
//   - A join indicator's sample space is the cross product R×S of its two
//     tables, with parents on the referenced side read through its own key.
//     Under referential integrity each row of R joins exactly one row of S,
//     so one scan of R yields the true pairs and, with one scan of S, the
//     two per-side contingencies whose product is the pair total per parent
//     configuration. The false count is that total minus the true pairs,
//     derived in time proportional to the occupied side cells, not |R|·|S|.
//
// Cells are keyed mixed-radix over [child, parents...] (learn.Counts), so
// every value of every domain has a cell of its own. All weights are
// integers far below 2^53, so float64 accumulation is exact and
// independent of order: a count grown row by row through ApplyInsert is
// bit-for-bit the count a rescan of the final tables produces.

// column is one dimension of an observation read from a row r of some
// table: vals[r], or vals[refs[r]] when the value lives in a referenced
// table, scaled by the dimension's mixed-radix stride.
type column struct {
	vals, refs []int32
	stride     uint64
}

// reader computes an observation's cell key from a row: a constant base
// for the dimensions with a fixed value, plus one term per column. Its
// columns alias live table columns, which an append may reallocate, so a
// reader is resolved afresh for every scan.
type reader struct {
	base uint64
	cols []column
}

func (rd *reader) key(r int) uint64 {
	k := rd.base
	for i := range rd.cols {
		c := &rd.cols[i]
		if c.refs == nil {
			k += uint64(c.vals[r]) * c.stride
		} else {
			k += uint64(c.vals[c.refs[r]]) * c.stride
		}
	}
	return k
}

// count adds one observation of weight 1 per row in [lo, hi).
func (rd *reader) count(c *learn.Counts, lo, hi int) {
	for r := lo; r < hi; r++ {
		c.AddKey(rd.key(r), 1)
	}
}

// countCards returns the dimensions of child's counts: its own
// cardinality, then each parent's.
func countCards(vars []Var, child int, parents []int) []int {
	cards := make([]int, 1+len(parents))
	cards[0] = vars[child].Card
	for i, p := range parents {
		cards[i+1] = vars[p].Card
	}
	return cards
}

// firstFK returns the index of t's first foreign key to table, or -1: the
// key through which an attribute of t reads a parent in that table.
func firstFK(t *dataset.Table, table string) int {
	for j, fk := range t.ForeignKeys {
		if fk.To == table {
			return j
		}
	}
	return -1
}

// attrReader resolves attribute child's observations given parents, one
// per row of its table. cols is scratch space for the reader's columns.
func attrReader(db *dataset.Database, vars []Var, child int, parents []int, cols []column) (reader, error) {
	v := vars[child]
	t := db.Table(v.Table)
	rd := reader{cols: append(cols[:0], column{vals: t.Col(t.AttrIndex(v.Attr)), stride: 1})}
	stride := uint64(v.Card)
	for _, p := range parents {
		pv := vars[p]
		switch {
		case pv.Kind == JoinVar:
			rd.base += uint64(JoinTrue) * stride
		case pv.Table == v.Table:
			rd.cols = append(rd.cols, column{vals: t.Col(t.AttrIndex(pv.Attr)), stride: stride})
		default:
			fi := firstFK(t, pv.Table)
			if fi < 0 {
				return reader{}, fmt.Errorf("core: %s has no foreign key to %s (parent %s)", v.Table, pv.Table, pv.Name())
			}
			ref := db.Table(pv.Table)
			rd.cols = append(rd.cols, column{vals: ref.Col(ref.AttrIndex(pv.Attr)), refs: t.FKCol(fi), stride: stride})
		}
		stride *= uint64(pv.Card)
	}
	return rd, nil
}

// attrCounts counts attribute child's observations given parents over its
// whole table.
func attrCounts(db *dataset.Database, vars []Var, child int, parents []int) (*learn.Counts, error) {
	rd, err := attrReader(db, vars, child, parents, nil)
	if err != nil {
		return nil, err
	}
	c := learn.NewCounts(countCards(vars, child, parents))
	rd.count(c, 0, db.Table(vars[child].Table).Len())
	return c, nil
}

// joinStats is a join indicator's contingency in maintainable form: the
// true pairs, and the two per-side contingencies whose product is the
// R×S pair total per parent configuration. All three are keyed over the
// indicator's full [indicator, parents...] dimensions; a side's keys hold
// zero in every dimension but its own parents', so a pair's key is the sum
// of its two side keys plus the indicator's value.
type joinStats struct {
	pairs, from, to *learn.Counts
}

// joinReaders resolves join indicator child's two sides given parents:
// from reads a referencing row's parents, to a referenced row's, and refs
// names the referenced row each referencing row joins. fromCols and
// toCols are scratch space for the readers' columns.
func joinReaders(db *dataset.Database, vars []Var, child int, parents []int, fromCols, toCols []column) (from, to reader, refs []int32, err error) {
	v := vars[child]
	t, s := db.Table(v.Table), db.Table(v.Ref)
	from.cols, to.cols = fromCols[:0], toCols[:0]
	stride := uint64(v.Card)
	for _, p := range parents {
		pv := vars[p]
		switch {
		case pv.Kind != AttrVar:
			return reader{}, reader{}, nil, fmt.Errorf("core: join indicator %s cannot take %s as parent", v.Name(), pv.Name())
		case pv.Table == v.Table:
			from.cols = append(from.cols, column{vals: t.Col(t.AttrIndex(pv.Attr)), stride: stride})
		case pv.Table == v.Ref:
			to.cols = append(to.cols, column{vals: s.Col(s.AttrIndex(pv.Attr)), stride: stride})
		default:
			return reader{}, reader{}, nil, fmt.Errorf("core: join indicator %s parent %s outside its tables", v.Name(), pv.Name())
		}
		stride *= uint64(pv.Card)
	}
	return from, to, t.FKCol(t.FKIndex(v.FK)), nil
}

// joinCounts scans both tables of join indicator child given parents.
func joinCounts(db *dataset.Database, vars []Var, child int, parents []int) (*joinStats, error) {
	from, to, refs, err := joinReaders(db, vars, child, parents, nil, nil)
	if err != nil {
		return nil, err
	}
	cards := countCards(vars, child, parents)
	js := &joinStats{pairs: learn.NewCounts(cards), from: learn.NewCounts(cards), to: learn.NewCounts(cards)}
	js.addFrom(&from, &to, refs, 0, len(refs))
	to.count(js.to, 0, db.Table(vars[child].Ref).Len())
	return js, nil
}

// addFrom folds referencing rows [lo, hi): each is one from-side
// observation and one true pair with the row it references.
func (js *joinStats) addFrom(from, to *reader, refs []int32, lo, hi int) {
	for r := lo; r < hi; r++ {
		f := from.key(r)
		js.from.AddKey(f, 1)
		js.pairs.AddKey(uint64(JoinTrue)+f+to.key(int(refs[r])), 1)
	}
}

// derive materializes the join indicator's full contingency: the true
// pairs plus, per occupied (from, to) configuration pair, the non-joining
// remainder of the cross product.
func (js *joinStats) derive() *learn.Counts {
	c := &learn.Counts{Cards: js.pairs.Cards, Cells: maps.Clone(js.pairs.Cells), N: js.pairs.N}
	for fk, fn := range js.from.Cells {
		for tk, tn := range js.to.Cells {
			k := fk + tk // the indicator's dimension has stride 1
			if n := fn*tn - js.pairs.Cells[k+uint64(JoinTrue)]; n > 0 {
				c.AddKey(k+uint64(JoinFalse), n)
			}
		}
	}
	return c
}

// ModelStats is the model's complete sufficient statistics in
// incrementally maintainable form — the structure that turns parameter
// maintenance (paper §6) into an O(delta) update instead of a rescan: an
// attribute's counts, and a join indicator's true pairs and side
// contingencies (joinStats).
//
// Inserts compose cleanly under referential integrity: a new row of the
// referencing table adds one true pair and one from-side observation; a
// new row of the referenced table adds one to-side observation and no
// true pair, because no existing row references it yet. The relational
// write path has no deletes (a deleted row would invalidate row-index
// foreign keys), so the statistics only grow.
type ModelStats struct {
	m     *PRM
	attr  []*learn.Counts // indexed by var id; nil for join indicators
	joins []*joinStats    // indexed by var id; nil for attributes
	rows  map[string]int64
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
		attr:  make([]*learn.Counts, len(m.vars)),
		joins: make([]*joinStats, len(m.vars)),
		rows:  make(map[string]int64),
	}
	for _, tn := range db.TableNames() {
		st.rows[tn] = int64(db.Table(tn).Len())
	}
	for id, v := range m.vars {
		var err error
		if v.Kind == AttrVar {
			st.attr[id], err = attrCounts(db, m.vars, id, m.parents[id])
		} else {
			st.joins[id], err = joinCounts(db, m.vars, id, m.parents[id])
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ApplyInsert folds one just-appended row of the named table into the
// statistics. It must be called after the row is in db (the append-then-
// apply discipline), so foreign-key partners resolve through the live
// columns. Its cost is O(number of model variables touching the table),
// independent of table sizes.
func (st *ModelStats) ApplyInsert(db *dataset.Database, table string, row int) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("core: stats: unknown table %q", table)
	}
	if row < 0 || row >= t.Len() {
		return fmt.Errorf("core: stats: table %s row %d out of range [0,%d)", table, row, t.Len())
	}
	m := st.m
	// Stack scratch for the readers' columns, so an insert allocates
	// nothing; a variable with more than seven parents spills to the heap.
	var fromCols, toCols [8]column
	for id, v := range m.vars {
		switch {
		case v.Kind == AttrVar && v.Table == table:
			rd, err := attrReader(db, m.vars, id, m.parents[id], fromCols[:])
			if err != nil {
				return err
			}
			rd.count(st.attr[id], row, row+1)
		case v.Kind == JoinVar && (v.Table == table || v.Ref == table):
			from, to, refs, err := joinReaders(db, m.vars, id, m.parents[id], fromCols[:], toCols[:])
			if err != nil {
				return err
			}
			if v.Table == table {
				st.joins[id].addFrom(&from, &to, refs, row, row+1)
			} else {
				to.count(st.joins[id].to, row, row+1)
			}
		}
	}
	st.rows[table]++
	return nil
}

// Rows reports the maintained row count of one table.
func (st *ModelStats) Rows(table string) int64 { return st.rows[table] }

// counts returns variable id's full contingency.
func (st *ModelStats) counts(id int) *learn.Counts {
	if c := st.attr[id]; c != nil {
		return c
	}
	return st.joins[id].derive()
}

// RefitFromStats re-estimates every CPD's parameters from the maintained
// statistics, keeping the structure fixed: no table scan, cost
// proportional to occupied contingency cells. It clones the current
// epoch's CPDs, refits the clones, and atomically publishes a fresh epoch
// (which carries the maintained table sizes and an empty compiled-query
// cache); readers are never blocked, and a failed refit publishes nothing.
func (m *PRM) RefitFromStats(st *ModelStats) error {
	if st.m != m {
		return fmt.Errorf("core: RefitFromStats: statistics belong to a different model")
	}
	m.refitMu.Lock()
	defer m.refitMu.Unlock()
	cur := m.params()
	next := m.cloneEpochLocked(cur)
	for id := range m.vars {
		if err := learn.RefitCPD(next.cpds[id], st.counts(id)); err != nil {
			return fmt.Errorf("core: refit %s: %w", m.vars[id].Name(), err)
		}
	}
	for tn, n := range st.rows {
		next.tableSize[tn] = n
	}
	m.publish(cur, next)
	return nil
}
