package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"prmsel/internal/datagen"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
	"prmsel/internal/query"
)

var census40k struct {
	once sync.Once
	db   *dataset.Database
	m    *PRM
	err  error
}

// censusModel returns the served census model: 40,000 rows at seed 1,
// tree CPDs, SSN, 4,400 bytes, at most 4 parents.
func censusModel(t testing.TB) (*dataset.Database, *PRM) {
	t.Helper()
	c := &census40k
	c.once.Do(func() {
		c.db = datagen.Census(40000, 1)
		c.m, c.err = Learn(c.db, Config{
			Fit:    learn.FitConfig{Kind: learn.Tree},
			Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 4400, MaxParents: 4, Seed: 1},
		})
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.db, c.m
}

// modelCopy returns a private copy of m with a fresh parameter epoch.
func modelCopy(t testing.TB, m *PRM) *PRM {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// denseCopy returns a copy of m that serves every CPD over its parents'
// full domains: the unroller with coarsening off.
func denseCopy(t testing.TB, m *PRM) *PRM {
	t.Helper()
	d := modelCopy(t, m)
	ep := d.params()
	d.serve(ep.cpds, false)
	d.epoch.Store(newParamEpoch(ep.cpds, ep.tableSize))
	return d
}

// ulps returns how many representable doubles lie between two
// non-negative finite values.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// maxCoarsenULPs bounds how far an answer served over classes may fall
// from the dense network's. The two sum the same products in a different
// order: a mapped parent's values are summed into their class before the
// product with the child's table, not after. Measured: at most 6 ULPs
// over 4,800 census queries (censusQueries(db, 200, 4)); the test's own
// 192 queries reach 5.
const maxCoarsenULPs = 6

// censusQueries returns n queries on each of perfbench's 24 census shapes
// (one to three attributes, drawn as it draws them), every third with a
// two-value IN predicate on its first attribute.
func censusQueries(db *dataset.Database, n int, seed int64) []*query.Query {
	tab := db.Table("Census")
	shapeRng := rand.New(rand.NewSource(1))
	var shapes [][]int
	seen := map[string]bool{}
	for len(shapes) < 24 {
		idx := shapeRng.Perm(len(tab.Attributes))[:1+shapeRng.Intn(3)]
		slices.Sort(idx)
		if k := fmt.Sprint(idx); !seen[k] {
			seen[k] = true
			shapes = append(shapes, idx)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var qs []*query.Query
	for _, shape := range shapes {
		for i := 0; i < n; i++ {
			q := query.New().Over("c", "Census")
			for j, ai := range shape {
				a := tab.Attributes[ai]
				lo := int32(rng.Intn(a.Card()))
				if j == 0 && i%3 == 2 {
					q = q.Where("c", a.Name, lo, int32(rng.Intn(a.Card())))
					continue
				}
				q = q.WhereEq("c", a.Name, lo)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// TestCoarsenedMatchesDense: on the census model, where the rule serves
// several tree CPDs over classes, every answer stays within
// maxCoarsenULPs of the same query unrolled with coarsening off, and the
// compiled plan still agrees bit for bit with the plan-free reference on
// the coarsened network.
func TestCoarsenedMatchesDense(t *testing.T) {
	db, m := censusModel(t)
	coarse := 0
	for id := range m.vars {
		if m.serving[id].coarse != nil {
			coarse++
		}
	}
	if coarse == 0 {
		t.Fatal("the rule serves no census CPD over classes")
	}
	dense := denseCopy(t, m)
	var worst uint64
	for i, q := range censusQueries(db, 8, 2) {
		got, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m.EstimateCountUncompiled(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("query %d (%v): compiled %v, plan-free %v", i, q, got, ref)
		}
		want, err := dense.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		u := ulps(got, want)
		if u > maxCoarsenULPs {
			t.Fatalf("query %d (%v): %v over classes, %v dense: %d ULPs apart", i, q, got, want, u)
		}
		worst = max(worst, u)
	}
	t.Logf("%d of %d census CPDs served over classes; worst difference from dense %d ULPs", coarse, len(m.vars), worst)
}

// TestServedTableSizes pins the largest table serving builds for the
// census model — Income over its parents' classes — against the
// 1,156,680 cells of its dense expansion.
func TestServedTableSizes(t *testing.T) {
	_, m := censusModel(t)
	largest := func(m *PRM) int {
		ep, n := m.params(), 0
		for id := range m.serving {
			n = max(n, len(m.table(ep, id)))
		}
		return n
	}
	if n := largest(m); n > 1344 {
		t.Fatalf("largest served census table holds %d cells, want at most 1,344", n)
	}
	if n := largest(denseCopy(t, m)); n != 1156680 {
		t.Fatalf("largest dense census table holds %d cells, want 1,156,680", n)
	}
}

// cutsDB returns table T of 40,000 rows: A, B and C uniform over 80
// values, and D = 20·[A≥40] + 20·[B≥40] + 20·[C≥40] + uniform(0..19).
func cutsDB(t testing.TB, seed int64) *dataset.Database {
	t.Helper()
	labels := make([]string, 80)
	for i := range labels {
		labels[i] = fmt.Sprintf("v%02d", i)
	}
	tab := dataset.NewTable(dataset.Schema{Name: "T", Attributes: []dataset.Attribute{
		{Name: "A", Values: labels}, {Name: "B", Values: labels},
		{Name: "C", Values: labels}, {Name: "D", Values: labels},
	}})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40000; i++ {
		a, b, c := int32(rng.Intn(80)), int32(rng.Intn(80)), int32(rng.Intn(80))
		d := int32(rng.Intn(20))
		for _, x := range []int32{a, b, c} {
			if x >= 40 {
				d += 20
			}
		}
		tab.MustAppendRow([]int32{a, b, c, d}, nil)
	}
	db := dataset.NewDatabase()
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

// learnCuts learns cutsDB(seed) with tree CPDs, SSN, 4,400 bytes and at
// most 4 parents, and requires T.D to depend on A, B and C.
func learnCuts(t testing.TB, seed int64) (*dataset.Database, *PRM) {
	t.Helper()
	db := cutsDB(t, seed)
	m, err := Learn(db, Config{
		Fit:    learn.FitConfig{Kind: learn.Tree},
		Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 4400, MaxParents: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ps := m.Parents(m.VarID("T.D")); len(ps) != 3 {
		t.Fatalf("T.D learned parents %v, want A, B and C", ps)
	}
	return db, m
}

// TestLearnedModelLoadsAgain: a model Learn returns decodes, and answers
// fast with the same bits after the round trip. T.D depends on A, B and C
// (80 values each) only through one cut each, so its tree stands for
// 40,960,000 dense cells — more than the decoder admits — but serving
// builds 640 cells of table and 480 of class maps for it.
func TestLearnedModelLoadsAgain(t *testing.T) {
	_, m := learnCuts(t, 3)
	q := query.New().Over("t", "T").WhereEq("t", "D", 5)
	est := func(m *PRM) float64 {
		start := time.Now()
		v, err := m.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("first estimate took %v", d)
		}
		return v
	}
	want := est(m)
	loaded := modelCopy(t, m)
	if got := est(loaded); got != want {
		t.Fatalf("after the round trip %v, before %v", got, want)
	}
}

// TestConcurrentCoarsenedMisses: goroutines answering queries on fresh
// shapes — each building class nodes, the coarsened table and its maps
// behind the epoch's sync.Once — while a refitter alternates two
// parameter sets, always answer with one of the two sets' estimates.
func TestConcurrentCoarsenedMisses(t *testing.T) {
	db0, m := learnCuts(t, 3)
	dbs := []*dataset.Database{db0, cutsDB(t, 4)}
	if m.serving[m.VarID("T.D")].coarse == nil {
		t.Fatal("T.D is not served over classes")
	}
	var qs []*query.Query
	for _, attrs := range [][]string{{"D"}, {"A", "D"}, {"B", "C", "D"}, {"A", "B"}} {
		for v := int32(0); v < 80; v += 13 {
			q := query.New().Over("t", "T")
			for _, a := range attrs {
				q = q.WhereEq("t", a, v)
			}
			qs = append(qs, q, query.New().Over("t", "T").Where("t", attrs[0], v, 79).WhereEq("t", "D", 79-v))
		}
	}
	// A refit keeps old estimates where the data has none, so the answers
	// are taken on a second round of the alternation.
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
			for r := 0; r < 4; r++ {
				for j := range qs {
					i := (g*11 + j) % len(qs)
					est, err := m.EstimateCount(qs[i])
					if err != nil {
						errs <- err
						return
					}
					if est != want[0][i] && est != want[1][i] {
						errs <- fmt.Errorf("goroutine %d: query %d estimated %v, want %v or %v", g, i, est, want[0][i], want[1][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 8; r++ {
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
