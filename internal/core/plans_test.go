package core

import (
	"bytes"
	"reflect"
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
// every PRM-level variable — class variables included — all their nodes
// read one table: the epoch's, laid out exactly as the expansion of the
// node's served CPD. Both answer bit for bit like the plan-free
// reference, and each network has a node of every served parent of a
// variable it has a node of. The census shape reaches CPDs served over
// classes, so its networks hold their class variables; the skew model
// serves every CPD dense, so its networks hold no class variable and a
// node of every PRM variable.
func TestPlanCacheSharesTables(t *testing.T) {
	_, census := censusModel(t)
	cases := []struct {
		name    string
		m       *PRM
		qs      []*query.Query
		classes bool
	}{
		{"skew", learnPRM(t, skewDB(t, 300, 1500, 25), false), []*query.Query{
			query.New().Over("u", "Purchase").Over("p", "Person").KeyJoin("u", "Buyer", "p").
				WhereEq("p", "Income", 1).WhereEq("u", "Amount", 0),
			query.New().Over("u", "Purchase").Over("p", "Person").KeyJoin("u", "Buyer", "p").
				Where("p", "Income", 0, 1).WhereEq("u", "Amount", 0),
		}, false},
		{"census", modelCopy(t, census), []*query.Query{
			query.New().Over("c", "Census").WhereEq("c", "Children", 1).WhereEq("c", "Sex", 0),
			query.New().Over("c", "Census").Where("c", "Children", 0, 1).WhereEq("c", "Sex", 0),
		}, true},
	}
	for _, tc := range cases {
		m := tc.m
		for i, q := range tc.qs {
			want, err := m.EstimateCountUncompiled(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.EstimateCount(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s query %d: compiled %v, uncompiled %v", tc.name, i, got, want)
			}
		}
		ep := m.params()
		entries := *ep.queries.Load()
		if len(entries) != 2 {
			t.Fatalf("%s: %d entries, want 2 (one per evidence pattern)", tc.name, len(entries))
		}
		for e, em := range entries {
			seen := map[int]bool{} // PRM-level variables the nodes stand for
			for v := 0; v < em.net.NumVars(); v++ {
				name, vid := em.net.Var(v).Name, em.vids[v]
				f := em.net.Factor(v)
				if &f.Data[0] != &m.table(ep, vid)[0] {
					t.Fatalf("%s: node %q reads its own copy of variable %d's table", tc.name, name, vid)
				}
				own := bayesnet.CPDFactor(em.net.CPD(v), v, em.net.Parents(v), em.net.Var(v).Card, em.net.ParentCards(v))
				if !reflect.DeepEqual(f.Vars, own.Vars) || !reflect.DeepEqual(f.Card, own.Card) || !reflect.DeepEqual(f.Data, own.Data) {
					t.Fatalf("%s: node %q: the shared table is not laid out like the node's served CPD expansion", tc.name, name)
				}
				seen[vid] = true
			}
			classes := false
			for vid := range seen {
				classes = classes || vid >= m.NumVars()
				for _, p := range m.serving[vid].parents {
					if !seen[p] {
						t.Fatalf("%s: network %q has a node of variable %d but none of its served parent %d", tc.name, e, vid, p)
					}
				}
			}
			if classes != tc.classes {
				t.Fatalf("%s: network %q reaches class variables %v, want %v", tc.name, e, classes, tc.classes)
			}
			if !tc.classes && len(seen) != m.NumVars() {
				t.Fatalf("%s: network %q reaches %d of the %d PRM variables, want every one", tc.name, e, len(seen), m.NumVars())
			}
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
