package prmsel

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBuildAndEstimateFig1(t *testing.T) {
	db := Fig1Example()
	model, err := Build(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Low-income home-owners: truth is 47 of 1000 (the paper's motivating
	// example, which AVI overestimates at ~162).
	q := NewQuery().Over("p", "People").
		WhereEq("p", "Income", 0).
		WhereEq("p", "HomeOwner", 1)
	truth, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 47 {
		t.Fatalf("truth = %d, want 47", truth)
	}
	est, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-47) > 3 {
		t.Errorf("PRM estimate = %v, want ≈47", est)
	}
	avi := NewAVI(db)
	aviEst, err := avi.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aviEst-161.68) > 0.5 {
		t.Errorf("AVI estimate = %v, want ≈161.7", aviEst)
	}
}

func TestBuildRespectsBudget(t *testing.T) {
	db := SyntheticCensus(5000, 9)
	for _, budget := range []int{1000, 3000} {
		model, err := Build(db, Config{BudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if model.StorageBytes() > budget {
			t.Errorf("budget %d: model uses %d bytes", budget, model.StorageBytes())
		}
	}
}

func TestJoinEstimation(t *testing.T) {
	db := SyntheticTB(0.15, 4)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").
		KeyJoin("c", "Patient", "p").
		WhereEq("p", "USBorn", 1)
	truth, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth == 0 {
		t.Skip("degenerate dataset")
	}
	if relErr := math.Abs(est-float64(truth)) / float64(truth); relErr > 0.25 {
		t.Errorf("join estimate %v vs truth %d (rel err %.2f)", est, truth, relErr)
	}

	uj, err := Build(db, Config{BudgetBytes: 4096, UniformJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uj.EstimateCount(q); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSelectivityConsistency(t *testing.T) {
	db := Fig1Example()
	model, err := Build(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().Over("p", "People").WhereEq("p", "Education", 1)
	sel, err := model.EstimateSelectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel*1000-cnt) > 1e-9 {
		t.Errorf("selectivity %v inconsistent with count %v", sel, cnt)
	}
}

func TestTableAndTreeCPDs(t *testing.T) {
	db := Fig1Example()
	for _, kind := range []CPDKind{TreeCPDs, TableCPDs} {
		model, err := Build(db, Config{CPD: kind})
		if err != nil {
			t.Fatal(err)
		}
		if model.NumParams() == 0 {
			t.Errorf("%v: no parameters", kind)
		}
		if model.String() == "" {
			t.Errorf("%v: empty structure dump", kind)
		}
	}
}

func TestScoringRules(t *testing.T) {
	db := SyntheticCensus(3000, 11)
	for _, crit := range []Criterion{SSN, MDL, Naive} {
		if _, err := Build(db, Config{Scoring: crit, BudgetBytes: 2000}); err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
	}
}

func TestMHistFacade(t *testing.T) {
	db := SyntheticCensus(3000, 12)
	h, err := NewMHist(db.Table("Census"), []string{"Age", "Income"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().Over("c", "Census").WhereEq("c", "Age", 5)
	if _, err := h.EstimateCount(q); err != nil {
		t.Fatal(err)
	}
	if h.StorageBytes() > 1000 {
		t.Errorf("MHIST over budget: %d", h.StorageBytes())
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	db := Fig1Example()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db.Table("People")); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabaseCSV(map[string]io.Reader{"People": &buf})
	if err != nil {
		t.Fatal(err)
	}
	if back.Table("People").Len() != 1000 {
		t.Errorf("round trip lost rows: %d", back.Table("People").Len())
	}
}

// TestWideDomainKeyJoins: a 300-label attribute under a join indicator,
// loaded through the CSV reader, keeps one cell per label. The learned
// model's per-label key-join counts sum to the exact join size and each
// is within a factor of 2 of the truth, as learned and after
// RefitParameters.
func TestWideDomainKeyJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := make([]string, 300)
	for i := range labels {
		labels[i] = fmt.Sprintf("inc%03d", i)
	}
	person := NewTable(Schema{
		Name:       "Person",
		Attributes: []Attribute{{Name: "Income", Values: labels}},
	})
	var cum []float64
	var total float64
	for i := 0; i < 3000; i++ {
		code := int32(i % 300)
		person.MustAppendRow([]int32{code}, nil)
		w := 1.0
		if code >= 256 {
			w = 8
		}
		total += w
		cum = append(cum, total)
	}
	purchase := NewTable(Schema{
		Name:        "Purchase",
		Attributes:  []Attribute{{Name: "Amount", Values: []string{"small", "large"}}},
		ForeignKeys: []ForeignKey{{Name: "Buyer", To: "Person"}},
	})
	for i := 0; i < 20000; i++ {
		buyer := sort.SearchFloat64s(cum, rng.Float64()*total)
		purchase.MustAppendRow([]int32{int32(rng.Intn(2))}, []int32{int32(buyer)})
	}
	files := map[string]io.Reader{}
	for _, tbl := range []*Table{person, purchase} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatal(err)
		}
		files[tbl.Name] = &buf
	}
	db, err := ReadDatabaseCSV(files)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Build(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		var sum, worst float64
		var exact int64
		for _, label := range labels {
			code, err := db.Table("Person").Code("Income", label)
			if err != nil {
				t.Fatal(err)
			}
			q := NewQuery().Over("u", "Purchase").Over("p", "Person").
				KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", code)
			truth, err := db.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			est, err := model.EstimateCount(q)
			if err != nil {
				t.Fatal(err)
			}
			sum += est
			exact += truth
			tr := math.Max(float64(truth), 1)
			worst = math.Max(worst, math.Max(est/tr, tr/est))
		}
		t.Logf("%s: estimates sum to %.0f of exact %d; worst q-error %.2f", stage, sum, exact, worst)
		if math.Abs(sum-float64(exact)) > 0.01*float64(exact) {
			t.Errorf("%s: per-label key-join estimates sum to %.0f, exact %d", stage, sum, exact)
		}
		if worst > 2 {
			t.Errorf("%s: worst per-label q-error %.2f, want <= 2", stage, worst)
		}
	}
	check("learned")
	if err := model.RefitParameters(db); err != nil {
		t.Fatal(err)
	}
	check("refit")
}

func TestSuiteEnumeration(t *testing.T) {
	s := Suite{
		Skeleton: NewQuery().Over("p", "People"),
		Targets:  []Target{{Var: "p", Attr: "Education"}, {Var: "p", Attr: "Income"}},
	}
	n := 0
	s.Enumerate([]int{3, 3}, func(q *Query) { n++ })
	if n != 9 {
		t.Errorf("enumerated %d queries, want 9", n)
	}
	if s.Size([]int{3, 3}) != 9 {
		t.Error("Size disagrees with Enumerate")
	}
}

func TestBuildOnHandConstructedDatabase(t *testing.T) {
	// Exercise the schema-construction API end to end.
	db := NewDatabase()
	team := NewTable(Schema{
		Name:       "Team",
		Attributes: []Attribute{{Name: "Division", Values: []string{"east", "west"}}},
	})
	team.MustAppendRow([]int32{0}, nil)
	team.MustAppendRow([]int32{1}, nil)
	player := NewTable(Schema{
		Name:        "Player",
		Attributes:  []Attribute{{Name: "Position", Values: []string{"guard", "center"}}},
		ForeignKeys: []ForeignKey{{Name: "Team", To: "Team"}},
	})
	for i := 0; i < 20; i++ {
		player.MustAppendRow([]int32{int32(i % 2)}, []int32{int32(i % 2)})
	}
	if err := db.AddTable(team); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(player); err != nil {
		t.Fatal(err)
	}
	model, err := Build(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("pl", "Player").Over("tm", "Team").
		KeyJoin("pl", "Team", "tm").
		WhereEq("tm", "Division", 0)
	truth, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-float64(truth)) > 1 {
		t.Errorf("estimate %v vs truth %d", est, truth)
	}
}

func TestModelPersistence(t *testing.T) {
	db := SyntheticTB(0.1, 7)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").
		KeyJoin("c", "Patient", "p").
		WhereEq("c", "Contype", 0)
	a, _ := model.EstimateCount(q)
	b, err := back.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("estimates differ after persistence: %v vs %v", a, b)
	}
}

func TestModelMaintenance(t *testing.T) {
	old := SyntheticTB(0.1, 8)
	model, err := Build(old, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fresh := SyntheticTB(0.1, 9)
	before, err := model.LogLikelihood(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.RefitParameters(fresh); err != nil {
		t.Fatal(err)
	}
	after, err := model.LogLikelihood(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Errorf("refit reduced the fresh-data score: %v -> %v", before, after)
	}
}

func TestModelGroupBy(t *testing.T) {
	db := SyntheticTB(0.1, 10)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").
		KeyJoin("c", "Patient", "p")
	groups, err := model.EstimateGroupBy(q, "c", "Contype")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 6 {
		t.Fatalf("groups = %d, want 6", len(groups))
	}
	var sum float64
	for _, g := range groups {
		sum += g
	}
	total, _ := model.EstimateCount(q)
	if math.Abs(sum-total) > 1e-6*math.Max(total, 1) {
		t.Errorf("groups sum %v != total %v", sum, total)
	}
}

func TestNonKeyJoinFacade(t *testing.T) {
	db := SyntheticTB(0.1, 11)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Contacts whose age bucket matches their patient's age bucket.
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").
		NonKeyJoinOn("c", "Age", "p", "Age")
	truth, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth > 0 {
		relErr := math.Abs(est-float64(truth)) / float64(truth)
		if relErr > 0.3 {
			t.Errorf("non-key join estimate %v vs truth %d (rel err %.2f)", est, truth, relErr)
		}
	}
}

func TestDiscretizerFacade(t *testing.T) {
	values := []float64{1, 2, 3, 50, 51, 52, 99, 100}
	d, err := NewDiscretizer(values, 4, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Buckets() < 2 {
		t.Fatalf("buckets = %d", d.Buckets())
	}
	attr := d.Attribute("Salary")
	if attr.Card() != d.Buckets() {
		t.Error("attribute card mismatch")
	}
	if _, err := NewDiscretizer(nil, 2, EquiWidth); err == nil {
		t.Error("empty values accepted")
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	db := SyntheticTB(0.1, 14)
	serial, err := Build(db, Config{BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(db, Config{BudgetBytes: 3000, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel build produced a different structure:\n%s\nvs\n%s", parallel, serial)
	}
}

func TestConcurrentEstimation(t *testing.T) {
	db := SyntheticTB(0.1, 15)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").
		KeyJoin("c", "Patient", "p").
		WhereEq("c", "Contype", 0)
	want, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Mix of shapes so cache misses and hits interleave.
				qq := q.Clone()
				if i%2 == 0 {
					qq.WhereEq("p", "USBorn", int32(g%2))
				}
				got, err := model.EstimateCount(qq)
				if err != nil {
					errs <- err
					return
				}
				if i%2 != 0 && got != want {
					errs <- fmt.Errorf("concurrent estimate %v != %v", got, want)
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

func TestExplainFacade(t *testing.T) {
	db := SyntheticTB(0.1, 16)
	model, err := Build(db, Config{BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().Over("c", "Contact").WhereEq("c", "Contype", 0)
	ex, err := model.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex.Estimate-est) > 1e-9 {
		t.Errorf("Explain estimate %v != EstimateCount %v", ex.Estimate, est)
	}
	if len(ex.TupleVars) < 1 {
		t.Error("explanation has no tuple variables")
	}
}

func TestRenderCPDsFacade(t *testing.T) {
	db := Fig1Example()
	model, err := Build(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := model.RenderCPDs()
	for _, want := range []string{"People.Education:", "People.Income:", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderCPDs missing %q in:\n%s", want, out)
		}
	}
}

func TestPlanFacade(t *testing.T) {
	db := SyntheticTB(0.15, 17)
	model, err := Build(db, Config{BudgetBytes: 4400})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").Over("s", "Strain").
		KeyJoin("c", "Patient", "p").
		KeyJoin("p", "Strain", "s").
		Where("p", "Age", 6, 7).
		WhereEq("c", "Contype", 3)
	plan, err := ChoosePlan(q, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 3 {
		t.Fatalf("plan order = %v", plan.Order)
	}
	cost, err := TruePlanCost(db, q, plan.Order)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := OptimalPlan(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if cost < optimal.EstCost {
		t.Errorf("true cost %v below the optimum %v — cost accounting broken", cost, optimal.EstCost)
	}
}
