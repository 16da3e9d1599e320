// Package query defines the select/keyjoin query model shared by the exact
// executor, the probabilistic estimators, and the baseline estimators.
//
// A Query is a conjunction of predicates over a set of named tuple
// variables, plus a set of foreign-key ("keyjoin") clauses connecting tuple
// variables. This mirrors the query class of Getoor, Taskar & Koller
// (SIGMOD 2001): equality and range selects combined with equality joins
// between a foreign key and the primary key of the referenced table.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Pred is a selection predicate tv.Attr IN Values (or NOT IN, when Negate
// is set). A single-element Values is an equality predicate; multiple
// elements encode a range or IN-set over the attribute's value codes.
type Pred struct {
	Var    string  // tuple variable name
	Attr   string  // attribute name within the variable's table
	Values []int32 // referenced value codes (non-empty, deduplicated)
	Negate bool    // accept the complement of Values instead
}

// Accept resolves the predicate to its accepted-code set given the
// attribute's domain size, validating the referenced codes.
func (p Pred) Accept(card int) (map[int32]bool, error) {
	if len(p.Values) == 0 {
		return nil, fmt.Errorf("query: predicate on %s.%s has empty value set", p.Var, p.Attr)
	}
	set := make(map[int32]bool, len(p.Values))
	for _, v := range p.Values {
		if v < 0 || int(v) >= card {
			return nil, fmt.Errorf("query: predicate value %d out of domain [0,%d) for %s.%s", v, card, p.Var, p.Attr)
		}
		set[v] = true
	}
	if !p.Negate {
		return set, nil
	}
	complement := make(map[int32]bool, card-len(set))
	for v := 0; v < card; v++ {
		if !set[int32(v)] {
			complement[int32(v)] = true
		}
	}
	return complement, nil
}

// Join is a keyjoin clause: FromVar.FK = ToVar.PrimaryKey, where FK names a
// foreign key declared on FromVar's table that references ToVar's table.
type Join struct {
	FromVar string
	FK      string
	ToVar   string
}

// NonKeyJoin is an equality join over two value attributes,
// LeftVar.LeftAttr = RightVar.RightAttr (paper §6). The two attributes must
// share a domain encoding (equal value codes mean equal values).
type NonKeyJoin struct {
	LeftVar, LeftAttr   string
	RightVar, RightAttr string
}

// Query is a conjunctive select-keyjoin query, optionally with non-key
// equality joins.
type Query struct {
	// Vars maps each tuple variable name to the table it ranges over.
	Vars map[string]string
	// Preds are the selection predicates; all must hold.
	Preds []Pred
	// Joins are the keyjoin clauses; all must hold.
	Joins []Join
	// NonKeyJoins are value-attribute equality joins; all must hold.
	NonKeyJoins []NonKeyJoin
}

// New returns an empty query ready for Over/Where/KeyJoin chaining.
func New() *Query {
	return &Query{Vars: make(map[string]string)}
}

// Over declares a tuple variable named tv ranging over table. It returns the
// query for chaining and overwrites any previous declaration of tv.
func (q *Query) Over(tv, table string) *Query {
	q.Vars[tv] = table
	return q
}

// Where adds the predicate tv.attr IN values.
func (q *Query) Where(tv, attr string, values ...int32) *Query {
	q.Preds = append(q.Preds, Pred{Var: tv, Attr: attr, Values: values})
	return q
}

// WhereEq adds the equality predicate tv.attr = value.
func (q *Query) WhereEq(tv, attr string, value int32) *Query {
	return q.Where(tv, attr, value)
}

// WhereNot adds the predicate tv.attr NOT IN values.
func (q *Query) WhereNot(tv, attr string, values ...int32) *Query {
	q.Preds = append(q.Preds, Pred{Var: tv, Attr: attr, Values: values, Negate: true})
	return q
}

// WhereBetween adds the range predicate lo <= tv.attr <= hi over ordinal
// value codes.
func (q *Query) WhereBetween(tv, attr string, lo, hi int32) *Query {
	vals := make([]int32, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	q.Preds = append(q.Preds, Pred{Var: tv, Attr: attr, Values: vals})
	return q
}

// KeyJoin adds the clause fromVar.fk = toVar.PK.
func (q *Query) KeyJoin(fromVar, fk, toVar string) *Query {
	q.Joins = append(q.Joins, Join{FromVar: fromVar, FK: fk, ToVar: toVar})
	return q
}

// NonKeyJoinOn adds the clause leftVar.leftAttr = rightVar.rightAttr.
func (q *Query) NonKeyJoinOn(leftVar, leftAttr, rightVar, rightAttr string) *Query {
	q.NonKeyJoins = append(q.NonKeyJoins, NonKeyJoin{
		LeftVar: leftVar, LeftAttr: leftAttr,
		RightVar: rightVar, RightAttr: rightAttr,
	})
	return q
}

// Clone returns a deep copy of q.
func (q *Query) Clone() *Query {
	c := &Query{
		Vars:        make(map[string]string, len(q.Vars)),
		Preds:       make([]Pred, len(q.Preds)),
		Joins:       append([]Join(nil), q.Joins...),
		NonKeyJoins: append([]NonKeyJoin(nil), q.NonKeyJoins...),
	}
	for k, v := range q.Vars {
		c.Vars[k] = v
	}
	for i, p := range q.Preds {
		c.Preds[i] = Pred{Var: p.Var, Attr: p.Attr, Values: append([]int32(nil), p.Values...), Negate: p.Negate}
	}
	return c
}

// VarNames returns the tuple variable names in sorted order.
func (q *Query) VarNames() []string {
	names := make([]string, 0, len(q.Vars))
	for v := range q.Vars {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

// Validate performs structural checks that do not require a schema:
// predicates and joins must reference declared tuple variables, and
// predicate value sets must be non-empty.
func (q *Query) Validate() error {
	if len(q.Vars) == 0 {
		return fmt.Errorf("query: no tuple variables declared")
	}
	for _, p := range q.Preds {
		if _, ok := q.Vars[p.Var]; !ok {
			return fmt.Errorf("query: predicate references undeclared variable %q", p.Var)
		}
		if len(p.Values) == 0 {
			return fmt.Errorf("query: predicate on %s.%s has empty value set", p.Var, p.Attr)
		}
	}
	for _, j := range q.Joins {
		if _, ok := q.Vars[j.FromVar]; !ok {
			return fmt.Errorf("query: join references undeclared variable %q", j.FromVar)
		}
		if _, ok := q.Vars[j.ToVar]; !ok {
			return fmt.Errorf("query: join references undeclared variable %q", j.ToVar)
		}
	}
	for _, j := range q.NonKeyJoins {
		if _, ok := q.Vars[j.LeftVar]; !ok {
			return fmt.Errorf("query: non-key join references undeclared variable %q", j.LeftVar)
		}
		if _, ok := q.Vars[j.RightVar]; !ok {
			return fmt.Errorf("query: non-key join references undeclared variable %q", j.RightVar)
		}
	}
	return nil
}

// String renders the query in a compact SQL-like form, deterministic across
// runs (variables sorted).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("FROM ")
	for i, v := range q.VarNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", q.Vars[v], v)
	}
	if len(q.Preds)+len(q.Joins)+len(q.NonKeyJoins) > 0 {
		b.WriteString(" WHERE ")
	}
	clauses := make([]string, 0, len(q.Preds)+len(q.Joins)+len(q.NonKeyJoins))
	for _, j := range q.Joins {
		clauses = append(clauses, fmt.Sprintf("%s.%s = %s.PK", j.FromVar, j.FK, j.ToVar))
	}
	for _, j := range q.NonKeyJoins {
		clauses = append(clauses, fmt.Sprintf("%s.%s = %s.%s", j.LeftVar, j.LeftAttr, j.RightVar, j.RightAttr))
	}
	for _, p := range q.Preds {
		switch {
		case !p.Negate && len(p.Values) == 1:
			clauses = append(clauses, fmt.Sprintf("%s.%s = %d", p.Var, p.Attr, p.Values[0]))
		case p.Negate && len(p.Values) == 1:
			clauses = append(clauses, fmt.Sprintf("%s.%s != %d", p.Var, p.Attr, p.Values[0]))
		default:
			vals := make([]string, len(p.Values))
			for i, v := range p.Values {
				vals[i] = fmt.Sprint(v)
			}
			op := "IN"
			if p.Negate {
				op = "NOT IN"
			}
			clauses = append(clauses, fmt.Sprintf("%s.%s %s (%s)", p.Var, p.Attr, op, strings.Join(vals, ",")))
		}
	}
	b.WriteString(strings.Join(clauses, " AND "))
	return b.String()
}

// CanonicalKey renders the query as a deterministic cache key: tuple
// variables, joins, non-key joins, and predicates are each sorted, and
// predicate value sets are sorted and deduplicated. Two queries that accept
// the same rows clause-for-clause (regardless of construction or clause
// order) share a key, which is what an inference cache wants; it does NOT
// attempt full semantic equivalence (e.g. a NOT IN and its complementary IN
// produce different keys).
func (q *Query) CanonicalKey() string {
	b := make([]byte, 0, 32+16*(len(q.Vars)+len(q.Joins)+len(q.NonKeyJoins)+len(q.Preds)))
	return string(q.AppendCanonicalKey(b))
}

// keyScratch sizes the stack arrays AppendCanonicalKey sorts in: a query
// of up to keyScratch variables, clauses and predicate values (a BETWEEN
// counts every value of its range) keys with no heap scratch, and a
// larger one spills it. perfbench's served queries need at most 3, 4 and
// 20.
const keyScratch = 32

// AppendCanonicalKey appends CanonicalKey's bytes to b and returns the
// extended buffer. It sits on the cache-key path of every served
// estimate, so it sorts clause indices in place (no rendered clause
// strings) and keeps its scratch on the stack for queries of up to
// keyScratch variables, clauses and predicate values. Clause categories
// are emitted in a fixed order (vars, keyjoins, non-key joins,
// predicates), each sorted by its fields, which canonicalizes
// construction order.
func (q *Query) AppendCanonicalKey(b []byte) []byte {
	var nameBuf [keyScratch]string
	names := nameBuf[:0]
	for v := range q.Vars {
		names = append(names, v)
	}
	insertionSortStrings(names)
	for i, v := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, v...)
		b = append(b, ':')
		b = append(b, q.Vars[v]...)
	}

	// One index buffer, reused across the three clause categories.
	var idxBuf [keyScratch]int
	idx := idxBuf[:]
	if n := max(len(q.Joins), len(q.NonKeyJoins), len(q.Preds)); n > len(idx) {
		idx = make([]int, n)
	}

	order := idx[:len(q.Joins)]
	for i := range order {
		order[i] = i
	}
	insertionSort(order, q.lessJoin)
	for _, i := range order {
		j := &q.Joins[i]
		b = append(b, ";j|"...)
		b = append(b, j.FromVar...)
		b = append(b, '.')
		b = append(b, j.FK...)
		b = append(b, '|')
		b = append(b, j.ToVar...)
	}

	order = idx[:len(q.NonKeyJoins)]
	for i := range order {
		order[i] = i
	}
	insertionSort(order, q.lessNonKeyJoin)
	for _, i := range order {
		lv, la, rv, ra := q.NonKeyJoins[i].sides()
		b = append(b, ";n|"...)
		b = append(b, lv...)
		b = append(b, '.')
		b = append(b, la...)
		b = append(b, '|')
		b = append(b, rv...)
		b = append(b, '.')
		b = append(b, ra...)
	}

	// Predicate value sets are sorted (and deduplicated at emission) in one
	// shared backing array instead of a copy per predicate.
	var valBuf [keyScratch]int32
	var startBuf [keyScratch + 1]int
	vals, starts := valBuf[:0], startBuf[:0]
	for i := range q.Preds {
		starts = append(starts, len(vals))
		vals = append(vals, q.Preds[i].Values...)
		sortInt32s(vals[starts[i]:])
	}
	starts = append(starts, len(vals))

	order = idx[:len(q.Preds)]
	for i := range order {
		order[i] = i
	}
	insertionSort(order, func(a, c int) bool {
		return q.lessPred(a, c, vals, starts)
	})
	for _, i := range order {
		p := &q.Preds[i]
		b = append(b, ";p|"...)
		b = append(b, p.Var...)
		b = append(b, '.')
		b = append(b, p.Attr...)
		if p.Negate {
			b = append(b, "|not|"...)
		} else {
			b = append(b, "|in|"...)
		}
		last := int32(-1)
		for k, v := range vals[starts[i]:starts[i+1]] {
			if k > 0 && v == last {
				continue
			}
			last = v
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
		}
	}
	return b
}

// sides returns the non-key join's endpoints with the lexically smaller
// (var, attr) side first; the join is symmetric, so the key must not
// depend on which way it was written.
func (j *NonKeyJoin) sides() (lv, la, rv, ra string) {
	if j.RightVar < j.LeftVar || (j.RightVar == j.LeftVar && j.RightAttr < j.LeftAttr) {
		return j.RightVar, j.RightAttr, j.LeftVar, j.LeftAttr
	}
	return j.LeftVar, j.LeftAttr, j.RightVar, j.RightAttr
}

func (q *Query) lessJoin(a, b int) bool {
	x, y := &q.Joins[a], &q.Joins[b]
	if x.FromVar != y.FromVar {
		return x.FromVar < y.FromVar
	}
	if x.FK != y.FK {
		return x.FK < y.FK
	}
	return x.ToVar < y.ToVar
}

func (q *Query) lessNonKeyJoin(a, b int) bool {
	xlv, xla, xrv, xra := q.NonKeyJoins[a].sides()
	ylv, yla, yrv, yra := q.NonKeyJoins[b].sides()
	if xlv != ylv {
		return xlv < ylv
	}
	if xla != yla {
		return xla < yla
	}
	if xrv != yrv {
		return xrv < yrv
	}
	return xra < yra
}

// lessPred orders predicates by (var, attr, polarity, sorted value set) so
// duplicate-attribute predicates still key deterministically.
func (q *Query) lessPred(a, b int, vals []int32, starts []int) bool {
	x, y := &q.Preds[a], &q.Preds[b]
	if x.Var != y.Var {
		return x.Var < y.Var
	}
	if x.Attr != y.Attr {
		return x.Attr < y.Attr
	}
	if x.Negate != y.Negate {
		return !x.Negate
	}
	xv, yv := vals[starts[a]:starts[a+1]], vals[starts[b]:starts[b+1]]
	for i := 0; i < len(xv) && i < len(yv); i++ {
		if xv[i] != yv[i] {
			return xv[i] < yv[i]
		}
	}
	return len(xv) < len(yv)
}

// insertionSort and friends replace sort.Slice on the key path: clause
// lists are tiny (a handful of entries), and the stdlib sort's interface
// boxing and closure allocation dominate at that size.
func insertionSort(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func insertionSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortInt32s(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Target identifies one queried attribute of one tuple variable. Suites are
// defined as the cross product of value instantiations of a target list.
type Target struct {
	Var  string
	Attr string
}

// Suite is a template for a family of queries: a fixed FROM/JOIN skeleton
// whose predicates range over all instantiations of the target attributes.
type Suite struct {
	Skeleton *Query   // joins + tuple variables; Preds must be empty
	Targets  []Target // attributes whose instantiations enumerate the suite
}

// Enumerate calls fn for every full equality instantiation of the suite's
// targets, given each target attribute's cardinality (aligned with Targets).
// The query passed to fn is reused across calls; clone it to retain it.
func (s Suite) Enumerate(cards []int, fn func(*Query)) {
	if len(cards) != len(s.Targets) {
		panic(fmt.Sprintf("query: Enumerate got %d cards for %d targets", len(cards), len(s.Targets)))
	}
	q := s.Skeleton.Clone()
	q.Preds = make([]Pred, len(s.Targets))
	vals := make([]int32, len(s.Targets))
	for i, t := range s.Targets {
		q.Preds[i] = Pred{Var: t.Var, Attr: t.Attr, Values: vals[i : i+1]}
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(s.Targets) {
			fn(q)
			return
		}
		for v := 0; v < cards[i]; v++ {
			vals[i] = int32(v)
			rec(i + 1)
		}
	}
	rec(0)
}

// Size returns the number of queries Enumerate will produce.
func (s Suite) Size(cards []int) int {
	n := 1
	for _, c := range cards {
		n *= c
	}
	return n
}
