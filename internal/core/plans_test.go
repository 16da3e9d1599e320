package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prmsel/internal/bayesnet"
	"prmsel/internal/query"
)

func batchQueries() []*query.Query {
	var qs []*query.Query
	// Repeated shape, varying constants — the workload plans exist for.
	for i := 0; i < 20; i++ {
		qs = append(qs, query.New().Over("p", "Person").
			WhereEq("p", "Income", int32(i%2)).WhereEq("p", "Owner", int32(i%2)))
	}
	// A join shape and a set-evidence shape mixed in.
	for i := 0; i < 10; i++ {
		qs = append(qs, query.New().Over("u", "Purchase").Over("p", "Person").
			KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", int32(i%2)))
		qs = append(qs, query.New().Over("p", "Person").Where("p", "Income", 0, 1))
	}
	return qs
}

// TestEstimateCompiledMatchesUncompiled is the end-to-end differential
// satellite: the full estimate pipeline through compiled plans must agree
// with the plan-free path bit for bit (well within the 1e-12 acceptance
// tolerance), across selects, set predicates, and key joins.
func TestEstimateCompiledMatchesUncompiled(t *testing.T) {
	db := skewDB(t, 300, 1500, 25)
	m := learnPRM(t, db, false)
	for i, q := range batchQueries() {
		want, err := m.EstimateCountUncompiled(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: compiled %v, uncompiled %v (diff %g)", i, got, want, got-want)
		}
	}
}

// TestPlanCacheHitRate: queries that differ only in their constants share
// one compiled entry — one miss, then hits — and a refit, which publishes
// a new parameter epoch, restarts the counts with an empty cache.
func TestPlanCacheHitRate(t *testing.T) {
	db := skewDB(t, 300, 1500, 25)
	m := learnPRM(t, db, false)
	q := func(i int) *query.Query {
		return query.New().Over("p", "Person").
			WhereEq("p", "Income", int32(i%2)).WhereEq("p", "Owner", int32(i/2%2))
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := m.EstimateCount(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.PlanStats(); st != (PlanCacheStats{Hits: n - 1, Misses: 1, Entries: 1}) {
		t.Fatalf("after %d queries of one shape: %+v, want 1 miss, %d hits, 1 entry", n, st, n-1)
	}
	if r := m.PlanStats().HitRate(); r != float64(n-1)/n {
		t.Fatalf("hit rate = %v, want %v", r, float64(n-1)/n)
	}
	if err := m.RefitParameters(db); err != nil {
		t.Fatal(err)
	}
	if st := m.PlanStats(); st != (PlanCacheStats{}) {
		t.Fatalf("after refit: %+v, want all zero", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.EstimateCount(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.PlanStats(); st != (PlanCacheStats{Hits: 2, Misses: 1, Entries: 1}) {
		t.Fatalf("after refit and 3 queries: %+v, want 1 miss, 2 hits, 1 entry", st)
	}
}

// TestPlanCacheSharesTables: an equality query and an IN query on one
// core shape are two entries, each with its own network and plan, but for
// every PRM variable all their nodes read one table — the epoch's, laid
// out exactly as the node's own CPD expansion — and both answer bit for
// bit like the plan-free reference.
func TestPlanCacheSharesTables(t *testing.T) {
	m := learnPRM(t, skewDB(t, 300, 1500, 25), false)
	base := func() *query.Query {
		return query.New().Over("u", "Purchase").Over("p", "Person").KeyJoin("u", "Buyer", "p")
	}
	qs := []*query.Query{
		base().WhereEq("p", "Income", 1).WhereEq("u", "Amount", 0),
		base().Where("p", "Income", 0, 1).WhereEq("u", "Amount", 0),
	}
	for i, q := range qs {
		want, err := m.EstimateCountUncompiled(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: compiled %v, uncompiled %v", i, got, want)
		}
	}
	ep := m.params()
	entries := *ep.queries.Load()
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 (one per evidence pattern)", len(entries))
	}
	seen := map[int]int{} // PRM variable -> nodes checked
	for _, em := range entries {
		for v := 0; v < em.net.NumVars(); v++ {
			name := em.net.Var(v).Name
			vid := m.VarID(name[strings.IndexByte(name, ':')+1:])
			if vid < 0 {
				t.Fatalf("node %q names no PRM variable", name)
			}
			f := em.net.Factor(v)
			if &f.Data[0] != &m.table(ep, vid)[0] {
				t.Fatalf("node %q reads its own copy of %s's table", name, m.Var(vid).Name())
			}
			own := bayesnet.CPDFactor(em.net.CPD(v), v, em.net.Parents(v), em.net.Var(v).Card, em.net.ParentCards(v))
			if !reflect.DeepEqual(f.Vars, own.Vars) || !reflect.DeepEqual(f.Card, own.Card) || !reflect.DeepEqual(f.Data, own.Data) {
				t.Fatalf("node %q: the shared table is not laid out like the node's own CPD expansion", name)
			}
			seen[vid]++
		}
	}
	for vid := 0; vid < m.NumVars(); vid++ {
		if seen[vid] < 2 {
			t.Fatalf("%s reached by %d nodes, want one in each network", m.Var(vid).Name(), seen[vid])
		}
	}
}

// TestPlanCacheInvalidation: a shape compiled before RefitParameters
// answers after it exactly like a freshly decoded copy of the refit model,
// and differently from before — no table or plan of the old parameters is
// reused.
func TestPlanCacheInvalidation(t *testing.T) {
	m := learnPRM(t, skewDB(t, 300, 1500, 25), false)
	qs := batchQueries()
	before := make([]float64, len(qs))
	for i, q := range qs {
		est, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = est
	}
	if err := m.RefitParameters(skewDB(t, 600, 900, 26)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d after refit: %v, fresh decode of the refit model %v", i, got, want)
		}
		if got == before[i] {
			t.Fatalf("query %d answers %v both before and after the refit", i, got)
		}
	}
}
