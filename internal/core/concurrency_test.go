package core

import (
	"context"
	"sync"
	"testing"

	"prmsel/internal/dataset"
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

// TestConcurrentPlanCacheDuringRefit races estimates over many query
// shapes against refits that alternate between two databases, so shapes
// are compiled, hit and dropped while epochs are published. Each estimate
// reads one epoch, so it must equal, bit for bit, the answer of one of the
// two parameter sets.
func TestConcurrentPlanCacheDuringRefit(t *testing.T) {
	dbs := []*dataset.Database{skewDB(t, 300, 1500, 28), skewDB(t, 500, 1000, 29)}
	m := learnPRM(t, dbs[0], false)
	qs := batchQueries()
	// want[k][i] answers qs[i] under parameters refit from dbs[k]. A refit
	// keeps old estimates where the data has none, so the answers are
	// taken on a second round of the alternation, once that has settled.
	want := make([][]float64, len(dbs))
	for round := 0; round < 2; round++ {
		for k, db := range dbs {
			if err := m.RefitParameters(db); err != nil {
				t.Fatal(err)
			}
			want[k] = want[k][:0]
			for _, q := range qs {
				est, err := m.EstimateCount(q)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = append(want[k], est)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				for j := range qs {
					i := (g*7 + j) % len(qs)
					est, err := m.EstimateCount(qs[i])
					if err != nil {
						errs <- err
						return
					}
					if est != want[0][i] && est != want[1][i] {
						t.Errorf("goroutine %d: query %d estimated %v, want %v or %v", g, i, est, want[0][i], want[1][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 6; r++ {
			if err := m.RefitParameters(dbs[r%2]); err != nil {
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

// TestConcurrentMissesShareOneEntry: goroutines that miss on one new
// shape at once publish one cache entry — one miss, every other lookup a
// hit — and all answer bit for bit alike.
func TestConcurrentMissesShareOneEntry(t *testing.T) {
	m := learnPRM(t, skewDB(t, 300, 1500, 30), false)
	q := query.New().Over("u", "Purchase").Over("p", "Person").
		KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", 1)
	const n = 16
	ests := make([]float64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			est, err := m.EstimateCount(q)
			if err != nil {
				t.Error(err)
				return
			}
			ests[g] = est
		}(g)
	}
	close(start)
	wg.Wait()
	if st := m.PlanStats(); st != (PlanCacheStats{Hits: n - 1, Misses: 1, Entries: 1}) {
		t.Fatalf("after %d concurrent first queries: %+v, want 1 miss, %d hits, 1 entry", n, st, n-1)
	}
	for g := 1; g < n; g++ {
		if ests[g] != ests[0] {
			t.Fatalf("goroutine %d estimated %v, goroutine 0 %v", g, ests[g], ests[0])
		}
	}
}
