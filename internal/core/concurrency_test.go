package core

import (
	"context"
	"sync"
	"testing"

	"prmsel/internal/query"
)

// TestConcurrentEstimation fires many goroutines at one model, mixing query
// shapes so the shape cache is both populated and hit concurrently. Run
// under -race this is the regression test for shared mutable scratch on the
// read path (see ISSUE 1): a failure here means some estimation state
// leaked across concurrent EstimateCount calls.
func TestConcurrentEstimation(t *testing.T) {
	db := skewDB(t, 300, 1500, 11)
	m := learnPRM(t, db, false)

	queries := []*query.Query{
		query.New().Over("p", "Person").WhereEq("p", "Income", 1),
		query.New().Over("p", "Person").WhereEq("p", "Income", 1).WhereEq("p", "Owner", 1),
		query.New().Over("p", "Person").Where("p", "Income", 0, 1),
		query.New().Over("u", "Purchase").WhereEq("u", "Amount", 1),
		query.New().Over("u", "Purchase").Over("p", "Person").
			KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", 1),
		query.New().Over("u", "Purchase").Over("p", "Person").
			KeyJoin("u", "Buyer", "p").WhereEq("u", "Amount", 1).WhereEq("p", "Owner", 0),
	}
	// Sequential reference values: concurrency must not change results.
	want := make([]float64, len(queries))
	for i, q := range queries {
		est, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				est, err := m.EstimateCount(queries[i])
				if err != nil {
					errs <- err
					return
				}
				if est != want[i] {
					t.Errorf("goroutine %d: query %d estimated %v, want %v", g, i, est, want[i])
					return
				}
				if _, err := m.EstimateSelectivity(queries[i]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentEstimationDuringRefit overlaps estimation with in-place
// parameter maintenance. The parameter RW-lock must keep the two phases
// disjoint: every estimate observes either the old or the new parameters,
// never a half-written CPD (a torn read trips -race).
func TestConcurrentEstimationDuringRefit(t *testing.T) {
	db := skewDB(t, 300, 1500, 12)
	db2 := skewDB(t, 300, 1500, 13) // same schema, different draws
	m := learnPRM(t, db, false)

	q := query.New().Over("u", "Purchase").Over("p", "Person").
		KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", 1)

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				if _, err := m.EstimateCount(q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 3; r++ {
			next := db
			if r%2 == 0 {
				next = db2
			}
			if err := m.RefitParameters(next); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentFallbackDuringRefit overlaps the degradation chain over
// mixed query shapes with refits publishing fresh epochs; under -race this
// is the regression test for the plan cache during a hot swap (plans
// capture resolved CPD factors, so a refit must drop them and estimates
// must never observe a half-written table).
func TestConcurrentFallbackDuringRefit(t *testing.T) {
	db := skewDB(t, 300, 1500, 26)
	db2 := skewDB(t, 300, 1500, 27)
	m := learnPRM(t, db, false)
	qs := batchQueries()

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				for _, q := range qs {
					if _, err := m.EstimateCountFallback(context.Background(), q, EstimateOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 4; r++ {
			next := db
			if r%2 == 0 {
				next = db2
			}
			if err := m.RefitParameters(next); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
