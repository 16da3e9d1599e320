package core

import (
	"testing"

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
