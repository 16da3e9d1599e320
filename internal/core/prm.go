// Package core implements Probabilistic Relational Models (PRMs) for
// selectivity estimation — the paper's primary contribution. A PRM extends
// a Bayesian network across foreign-key joins: attributes may have parents
// in foreign-key-related tables, and a binary join indicator variable per
// foreign key models join skew. One learned PRM estimates the result size
// of any select/keyjoin query over the database.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"prmsel/internal/bayesnet"
	"prmsel/internal/dataset"
)

// VarKind distinguishes the two kinds of PRM variables.
type VarKind int

const (
	// AttrVar is a value attribute of some table.
	AttrVar VarKind = iota
	// JoinVar is the join indicator of one foreign key (binary; value 1
	// means "the two sampled tuples join").
	JoinVar
)

// JoinTrue and JoinFalse are the value codes of join indicator variables.
const (
	JoinFalse int32 = 0
	JoinTrue  int32 = 1
)

// Var is one PRM-level variable.
type Var struct {
	Kind  VarKind
	Table string
	Attr  string // attribute name (AttrVar)
	FK    string // foreign key name (JoinVar); references RefTable
	Ref   string // referenced table (JoinVar)
	Card  int
}

// Name returns the canonical variable name: "T.A" for attributes and
// "T~F" for the join indicator of foreign key F on table T.
func (v Var) Name() string {
	if v.Kind == JoinVar {
		return v.Table + "~" + v.FK
	}
	return v.Table + "." + v.Attr
}

// PRM is a learned probabilistic relational model.
//
// The structural fields (vars, index, parents, strata, serving) are
// immutable after construction, save the class maps that serving builds
// once on first use. Everything a refit can change — CPDs, table sizes,
// their expanded tables and the cache of compiled queries — lives in an
// immutable paramEpoch published through an atomic pointer, so the
// estimate read path never takes a lock: a reader loads the epoch once
// per request and works against a consistent snapshot while a concurrent
// refit builds and publishes the next one.
type PRM struct {
	vars    []Var
	index   map[string]int // Var.Name() -> id
	parents [][]int
	// strata is the table stratification order used during learning.
	strata []string
	// serving says how evaluation networks unroll each PRM-level
	// variable: first the PRM variables, then one class variable per
	// parent that a coarsened tree CPD maps to its classes (see serve).
	serving []servedVar

	// epoch is the atomically published parameter snapshot. Never nil on
	// a constructed model (Learn/Decode install the first epoch).
	epoch atomic.Pointer[paramEpoch]

	// refitMu serializes writers: RefitParameters and RefitFromStats
	// clone the current epoch's CPDs, refit the clones, and publish a
	// fresh epoch. Readers never touch it.
	refitMu sync.Mutex

	// mu serializes the copy-on-write inserts into the current epoch's
	// query cache. Lookups are lock-free; only builders of a new query
	// shape take it.
	mu sync.Mutex
}

// paramEpoch is one immutable generation of the model's parameters: the
// CPDs, the table sizes that scale probabilities to counts, each served
// CPD and its expanded table, and the cache of queries compiled against
// exactly these CPDs. A refit never mutates a published epoch — it
// clones, refits the clones, and swaps the pointer — so holders of an old
// epoch keep estimating against internally consistent parameters, and the
// epoch swap is the cache's invalidation: the new epoch starts with no
// tables and an empty query map.
type paramEpoch struct {
	cpds []bayesnet.CPD
	// tableSize records |R| per table at learning (or last refit) time.
	tableSize map[string]int64
	// tables holds each PRM variable's served CPD expanded over its
	// served parents (see PRM.served), filled on first use and shared by
	// every evaluation network of the epoch. A class variable's map is
	// the model's, not the epoch's (servedVar.classMap).
	tables []cpdTable
	// queries maps a query's full shape (evidence.key) to its unrolled
	// evaluation network and compiled plan. The map value is immutable;
	// inserts copy-on-write under PRM.mu and republish, so a lookup is one
	// atomic load and a map read. hits and misses count the lookups.
	queries      atomic.Pointer[map[string]*evalModel]
	hits, misses atomic.Uint64
}

// cpdTable is one lazily built served CPD and its expanded table.
type cpdTable struct {
	once sync.Once
	cpd  bayesnet.CPD
	data []float64
}

// newParamEpoch assembles an epoch with no tables expanded and an empty
// query cache.
func newParamEpoch(cpds []bayesnet.CPD, tableSize map[string]int64) *paramEpoch {
	ep := &paramEpoch{cpds: cpds, tableSize: tableSize, tables: make([]cpdTable, len(cpds))}
	empty := make(map[string]*evalModel)
	ep.queries.Store(&empty)
	return ep
}

// servedVar is how evaluation networks unroll one PRM-level variable.
// A PRM variable whose tree CPD the selection rule picks
// (bayesnet.Coarsen) is served over the classes its splits induce on
// each parent: a kept parent stays its parent, a dropped one is no
// parent at all, and a mapped one reaches it through a class variable of
// its own — a PRM-level id after every PRM variable's, so that every
// network reads one table per class variable, and every network of an
// epoch one per coarsened CPD, exactly as for the other CPDs. Trees keep
// their splits across refits, so the classes are fixed for the model's
// life.
type servedVar struct {
	card int
	// parents are the PRM-level ids of the variable's served parents.
	parents []int
	// coarse is non-nil for a PRM variable served over classes.
	coarse *bayesnet.Coarsening
	// classMap holds a class variable's 0/1 map and its table. They
	// depend on the splits alone, so every epoch of the model shares
	// them, built on first use.
	classMap *cpdTable
	// child and parent name the CPD and the parent index a class
	// variable maps.
	child, parent int
}

// serve derives m.serving from cpds, whose trees fix the classes; with
// coarsen false every CPD is served over its parents' full domains (the
// dense reference the coarsened answers are tested against).
func (m *PRM) serve(cpds []bayesnet.CPD, coarsen bool) {
	m.serving = make([]servedVar, len(m.vars))
	for id, v := range m.vars {
		s := &m.serving[id]
		s.card, s.parents = v.Card, m.parents[id]
		cards := m.parentCards(id)
		if coarsen {
			s.coarse = bayesnet.Coarsen(cpds[id], v.Card, cards)
		}
		if s.coarse == nil {
			continue
		}
		s.parents = nil
		for i, k := range s.coarse.Cards {
			switch {
			case k == 0:
			case !s.coarse.Mapped(i):
				s.parents = append(s.parents, m.parents[id][i])
			default:
				s.parents = append(s.parents, len(m.serving))
				m.serving = append(m.serving, servedVar{card: k, parents: m.parents[id][i : i+1], classMap: new(cpdTable), child: id, parent: i})
				s = &m.serving[id] // the append may have moved it
			}
		}
	}
}

// parentCards returns the cardinalities of PRM variable id's parents.
func (m *PRM) parentCards(id int) []int {
	cards := make([]int, len(m.parents[id]))
	for i, p := range m.parents[id] {
		cards[i] = m.vars[p].Card
	}
	return cards
}

// served returns PRM-level variable id's served CPD in ep and its table
// expanded over id and its served parents in PRM-level ids, building
// both on first use; concurrent first uses build them once. The CPD is
// the epoch's own unless serving reads it over classes: then it is the
// coarsened table, rebuilt for each epoch, and a class variable's is its
// 0/1 map, built once for the model.
func (m *PRM) served(ep *paramEpoch, id int) *cpdTable {
	s := &m.serving[id]
	t := s.classMap
	if t == nil {
		t = &ep.tables[id]
	}
	t.once.Do(func() {
		switch {
		case s.classMap != nil:
			t.cpd = m.serving[s.child].coarse.Map(s.parent)
		case s.coarse != nil:
			t.cpd = s.coarse.Table(ep.cpds[id].(*bayesnet.TreeCPD))
		default:
			t.cpd = ep.cpds[id]
		}
		cards := make([]int, len(s.parents))
		for i, p := range s.parents {
			cards[i] = m.serving[p].card
		}
		t.data = bayesnet.CPDFactor(t.cpd, id, s.parents, s.card, cards).Data
	})
	return t
}

// table returns PRM-level variable id's served table in ep (served).
func (m *PRM) table(ep *paramEpoch, id int) []float64 { return m.served(ep, id).data }

// servedCPD returns the CPD that networks of ep read for PRM-level
// variable id (served), without expanding a CPD served as is: its table
// waits until a plan reads it.
func (m *PRM) servedCPD(ep *paramEpoch, id int) bayesnet.CPD {
	if id < len(m.vars) && m.serving[id].coarse == nil {
		return ep.cpds[id]
	}
	return m.served(ep, id).cpd
}

// params returns the current parameter epoch. Callers that make several
// reads which must be mutually consistent (an estimate, an encode) load
// once and pass the epoch down.
func (m *PRM) params() *paramEpoch { return m.epoch.Load() }

// publish installs next as the current epoch. Writers serialize on
// refitMu, so the swap cannot lose an update; the CAS (rather than a
// plain store) documents and enforces that next was derived from the
// epoch it replaces.
func (m *PRM) publish(cur, next *paramEpoch) {
	if !m.epoch.CompareAndSwap(cur, next) {
		panic("core: concurrent epoch publish (writer not holding refitMu?)")
	}
}

// NumVars returns the number of PRM variables.
func (m *PRM) NumVars() int { return len(m.vars) }

// Var returns variable metadata.
func (m *PRM) Var(id int) Var { return m.vars[id] }

// VarID returns the id of the named variable ("T.A" or "T~F"), or -1.
func (m *PRM) VarID(name string) int {
	id, ok := m.index[name]
	if !ok {
		return -1
	}
	return id
}

// AttrVarID returns the id of table's attribute attr, or -1.
func (m *PRM) AttrVarID(table, attr string) int { return m.VarID(table + "." + attr) }

// JoinVarID returns the id of the join indicator for fk on table, or -1.
func (m *PRM) JoinVarID(table, fk string) int { return m.VarID(table + "~" + fk) }

// Parents returns the parent ids of id (do not mutate).
func (m *PRM) Parents(id int) []int { return m.parents[id] }

// CPD returns the CPD of id in the current parameter epoch.
func (m *PRM) CPD(id int) bayesnet.CPD { return m.params().cpds[id] }

// TableSize returns |table| recorded at learning (or last refit) time.
func (m *PRM) TableSize(table string) int64 { return m.params().tableSize[table] }

// StorageBytes returns the model's storage cost: CPD bytes plus one byte
// per dependency edge (same accounting as bayesnet.Network).
func (m *PRM) StorageBytes() int {
	ep := m.params()
	total := 0
	for id, c := range ep.cpds {
		if c != nil {
			total += c.StorageBytes()
		}
		total += len(m.parents[id])
	}
	return total
}

// NumParams returns the total free parameters across CPDs.
func (m *PRM) NumParams() int {
	total := 0
	for _, c := range m.params().cpds {
		if c != nil {
			total += c.NumParams()
		}
	}
	return total
}

// String renders the dependency structure, one line per variable.
func (m *PRM) String() string {
	ep := m.params()
	var b strings.Builder
	for id, v := range m.vars {
		fmt.Fprintf(&b, "%s", v.Name())
		if len(m.parents[id]) > 0 {
			names := make([]string, len(m.parents[id]))
			for i, p := range m.parents[id] {
				names[i] = m.vars[p].Name()
			}
			fmt.Fprintf(&b, " <- %s", strings.Join(names, ", "))
		}
		if ep.cpds[id] != nil {
			fmt.Fprintf(&b, "  [%s, %dB]", ep.cpds[id].Kind(), ep.cpds[id].StorageBytes())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural invariants: every variable has a CPD, a
// cross-table parent comes with the join indicator of a foreign key
// between the two tables, join indicators have only attribute parents
// from their own two tables, and the dependency structure is acyclic.
// Decode additionally checks each CPD's shape and distributions.
func (m *PRM) Validate() error {
	ep := m.params()
	for id, v := range m.vars {
		if ep.cpds[id] == nil {
			return fmt.Errorf("core: variable %s has no CPD", v.Name())
		}
		for _, p := range m.parents[id] {
			pv := m.vars[p]
			switch v.Kind {
			case AttrVar:
				if pv.Kind == AttrVar && pv.Table != v.Table {
					// Cross-table parent: the join indicator of some FK of
					// v.Table referencing pv.Table must also be a parent.
					found := false
					for _, q := range m.parents[id] {
						qv := m.vars[q]
						if qv.Kind == JoinVar && qv.Table == v.Table && qv.Ref == pv.Table {
							found = true
							break
						}
					}
					if !found {
						return fmt.Errorf("core: %s has cross-table parent %s without its join indicator", v.Name(), pv.Name())
					}
				}
			case JoinVar:
				if pv.Kind != AttrVar {
					return fmt.Errorf("core: join indicator %s has non-attribute parent %s", v.Name(), pv.Name())
				}
				if pv.Table != v.Table && pv.Table != v.Ref {
					return fmt.Errorf("core: join indicator %s has parent %s outside its two tables", v.Name(), pv.Name())
				}
			}
		}
	}
	// Acyclicity of the class-level dependency graph.
	state := make([]int8, len(m.vars))
	var visit func(v int) bool
	visit = func(v int) bool {
		switch state[v] {
		case 1:
			return true
		case 2:
			return false
		}
		state[v] = 1
		for _, p := range m.parents[v] {
			if visit(p) {
				return true
			}
		}
		state[v] = 2
		return false
	}
	for v := range m.vars {
		if visit(v) {
			return fmt.Errorf("core: dependency structure is cyclic")
		}
	}
	return nil
}

// buildVars enumerates the PRM variables of a database in stratified table
// order, attributes first then join indicators per table.
func buildVars(db *dataset.Database) ([]Var, map[string]int, []string, error) {
	strata, err := db.Stratification()
	if err != nil {
		return nil, nil, nil, err
	}
	var vars []Var
	index := make(map[string]int)
	for _, tn := range strata {
		t := db.Table(tn)
		for _, a := range t.Attributes {
			v := Var{Kind: AttrVar, Table: tn, Attr: a.Name, Card: a.Card()}
			index[v.Name()] = len(vars)
			vars = append(vars, v)
		}
		for _, fk := range t.ForeignKeys {
			v := Var{Kind: JoinVar, Table: tn, FK: fk.Name, Ref: fk.To, Card: 2}
			index[v.Name()] = len(vars)
			vars = append(vars, v)
		}
	}
	return vars, index, strata, nil
}

// RenderCPD pretty-prints variable id's CPD with parent names; values are
// shown as codes (join indicators as false/true).
func (m *PRM) RenderCPD(id int) string {
	ep := m.params()
	parents := m.parents[id]
	names := make([]string, len(parents))
	for i, p := range parents {
		names[i] = m.vars[p].Name()
	}
	valueName := func(parent int, value int32) string {
		if m.vars[parents[parent]].Kind == JoinVar {
			if value == JoinTrue {
				return "true"
			}
			return "false"
		}
		return fmt.Sprint(value)
	}
	return bayesnet.RenderCPD(ep.cpds[id], names, valueName)
}
