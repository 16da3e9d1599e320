package prmsel

// One benchmark per figure of the paper's evaluation (Section 5; the
// evaluation has no numbered tables — Figures 4–7 are the complete set),
// plus micro-benchmarks for the two phases (construction, estimation) and
// ablation benchmarks for the design choices DESIGN.md calls out. The
// benchmarks run on reduced dataset sizes so `go test -bench=.` completes
// in minutes; cmd/prmbench regenerates the figures at paper scale.

import (
	"sync"
	"testing"

	"prmsel/internal/datagen"
	"prmsel/internal/dataset"
	"prmsel/internal/eval"
	"prmsel/internal/query"
)

var (
	benchOnce     sync.Once
	benchCensus   *dataset.Database
	benchTB       *dataset.Database
	benchFIN      *dataset.Database
	benchQueryOpt = eval.Options{MaxQueries: 300, Seed: 1}
)

func benchData() (*dataset.Database, *dataset.Database, *dataset.Database) {
	benchOnce.Do(func() {
		benchCensus = datagen.Census(10000, 1)
		benchTB = datagen.TB(0.15, 2)
		benchFIN = datagen.FIN(0.1, 3)
	})
	return benchCensus, benchTB, benchFIN
}

func benchFigure(b *testing.B, run func() (*eval.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if fig != nil && len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig4a(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig4(census, "4a", []string{"Age", "Income"}, []int{400, 800, 1200}, benchQueryOpt)
	})
}

func BenchmarkFig4b(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig4(census, "4b", []string{"Age", "HoursPerWeek", "Income"}, []int{1500, 3500}, benchQueryOpt)
	})
}

func BenchmarkFig4c(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig4(census, "4c", []string{"Age", "Education", "HoursPerWeek", "Income"}, []int{1500, 5500}, benchQueryOpt)
	})
}

func BenchmarkFig5a(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig5(census, "5a", []string{"WorkerClass", "Education", "MaritalStatus"}, []int{1500, 4500}, benchQueryOpt)
	})
}

func BenchmarkFig5b(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig5(census, "5b", []string{"Income", "Industry", "Age", "EmployType"}, []int{1500, 9500}, benchQueryOpt)
	})
}

func BenchmarkFig5c(b *testing.B) {
	census, _, _ := benchData()
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig5c(census, []string{"Income", "Industry", "Age"}, 9300, benchQueryOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no scatter points")
		}
	}
}

var tbTargets = []query.Target{
	{Var: "c", Attr: "Contype"},
	{Var: "p", Attr: "Age"},
	{Var: "s", Attr: "DrugResistant"},
}

func BenchmarkFig6a(b *testing.B) {
	_, tb, _ := benchData()
	w := eval.TBWorkload(tb)
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig6a(w, tbTargets, []int{1300, 4300}, benchQueryOpt)
	})
}

func BenchmarkFig6b(b *testing.B) {
	_, tb, _ := benchData()
	w := eval.TBWorkload(tb)
	suites := [][]query.Target{
		{{Var: "c", Attr: "Contype"}, {Var: "p", Attr: "Age"}},
		{{Var: "p", Attr: "HIV"}, {Var: "s", Attr: "Unique"}},
		{{Var: "c", Attr: "Infected"}, {Var: "p", Attr: "USBorn"}, {Var: "s", Attr: "DrugResistant"}},
	}
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig6Sets("6b", w, suites, 4400, benchQueryOpt)
	})
}

func BenchmarkFig6c(b *testing.B) {
	_, _, fin := benchData()
	w := eval.FINWorkload(fin)
	suites := [][]query.Target{
		{{Var: "t", Attr: "Type"}, {Var: "a", Attr: "Balance"}},
		{{Var: "t", Attr: "Amount"}, {Var: "a", Attr: "Frequency"}, {Var: "d", Attr: "AvgSalary"}},
		{{Var: "t", Attr: "Channel"}, {Var: "a", Attr: "CardType"}, {Var: "d", Attr: "Urban"}},
	}
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig6Sets("6c", w, suites, 2000, benchQueryOpt)
	})
}

func BenchmarkFig7a(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig7a(census, []int{500, 4500, 8500}, benchQueryOpt)
	})
}

func BenchmarkFig7b(b *testing.B) {
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig7b([]int{4000, 16000}, 3500, benchQueryOpt)
	})
}

func BenchmarkFig7c(b *testing.B) {
	census, _, _ := benchData()
	benchFigure(b, func() (*eval.Figure, error) {
		return eval.Fig7c(census, []int{1000, 5000, 9000}, []string{"WorkerClass", "Education", "MaritalStatus"}, benchQueryOpt)
	})
}

// Construction micro-benchmarks (the offline phase, Fig 7a/b's subject).

func benchConstruct(b *testing.B, kind CPDKind) {
	census, _, _ := benchData()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(census, Config{CPD: kind, BudgetBytes: 3500}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructTree(b *testing.B)  { benchConstruct(b, TreeCPDs) }
func BenchmarkConstructTable(b *testing.B) { benchConstruct(b, TableCPDs) }

// Estimation micro-benchmarks (the online phase, Fig 7c's subject).

func benchEstimate(b *testing.B, kind CPDKind) {
	census, _, _ := benchData()
	model, err := Build(census, Config{CPD: kind, BudgetBytes: 3500})
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuery().Over("c", "Census").
		WhereEq("c", "WorkerClass", 2).
		WhereEq("c", "Education", 8).
		WhereEq("c", "MaritalStatus", 0)
	if _, err := model.EstimateCount(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.EstimateCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateTree(b *testing.B)  { benchEstimate(b, TreeCPDs) }
func BenchmarkEstimateTable(b *testing.B) { benchEstimate(b, TableCPDs) }

// BenchmarkEstimateRange times one census estimate whose range predicates
// keep several dimensions alive through variable elimination.
func BenchmarkEstimateRange(b *testing.B) {
	census, _, _ := benchData()
	model, err := Build(census, Config{BudgetBytes: 6000})
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuery().Over("c", "Census").
		Where("c", "Income", 20, 21, 22, 23, 24, 25).
		Where("c", "Age", 5, 6, 7).
		WhereEq("c", "Children", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.EstimateCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateJoin(b *testing.B) {
	_, tb, _ := benchData()
	model, err := Build(tb, Config{BudgetBytes: 4400})
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuery().
		Over("c", "Contact").Over("p", "Patient").Over("s", "Strain").
		KeyJoin("c", "Patient", "p").
		KeyJoin("p", "Strain", "s").
		WhereEq("c", "Contype", 3).
		Where("p", "Age", 6, 7).
		WhereEq("s", "Unique", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.EstimateCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCensusMisses times what each parameter epoch of the served
// census model pays for its first queries: every iteration publishes a
// fresh epoch with RefitParameters (not timed), so every estimate builds
// its shape's network, tables and plan again, as after an ingest refit.
// The model is the served one: 40,000 rows at seed 1, tree CPDs, SSN,
// 4,400 bytes. The attribute sets include children of Income
// (Children, Earner, MaritalStatus, Sex) without Income itself.
func BenchmarkCensusMisses(b *testing.B) {
	db := datagen.Census(40000, 1)
	est, err := eval.LearnPRM(db, "PRM", eval.LearnOptions{Kind: TreeCPDs, Criterion: SSN, Budget: 4400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sets := [][]string{
		{"Children"}, {"Earner"}, {"MaritalStatus"}, {"Sex"},
		{"Education", "Children"}, {"Industry", "Children", "EmployType"},
		{"Sex", "Earner"}, {"Age", "Income"},
	}
	tab := db.Table("Census")
	var qs []*query.Query
	for _, set := range sets {
		for i := 0; i < 4; i++ {
			q := query.New().Over("c", "Census")
			for _, attr := range set {
				card := tab.Attributes[tab.AttrIndex(attr)].Card()
				q.WhereEq("c", attr, int32((3*i+1)%card))
			}
			qs = append(qs, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := est.M.RefitParameters(db); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range qs {
			if _, err := est.M.EstimateCount(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Ablations (DESIGN.md §5).

// BenchmarkAblationScoring compares the three step-selection rules of
// §4.3.3 at a fixed budget.
func BenchmarkAblationScoring(b *testing.B) {
	census, _, _ := benchData()
	for _, crit := range []Criterion{SSN, MDL, Naive} {
		b.Run(crit.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(census, Config{Scoring: crit, BudgetBytes: 3000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCPDKind compares tree vs table CPDs end to end
// (construction plus a small suite).
func BenchmarkAblationCPDKind(b *testing.B) {
	census, _, _ := benchData()
	suite := query.Suite{
		Skeleton: query.New().Over("t", "Census"),
		Targets:  []query.Target{{Var: "t", Attr: "Education"}, {Var: "t", Attr: "Income"}},
	}
	for _, kind := range []CPDKind{TreeCPDs, TableCPDs} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := eval.LearnPRM(census, "PRM", eval.LearnOptions{Kind: kind, Criterion: SSN, Budget: 3500})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eval.RunSuite(census, est, suite, 200); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPruning measures the single-pass MI candidate-pruning
// speedup (the paper's future-work "home in on candidate models" idea).
func BenchmarkAblationPruning(b *testing.B) {
	census, _, _ := benchData()
	for _, topK := range []int{0, 3} {
		name := "full"
		if topK > 0 {
			name = "top3"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(census, Config{BudgetBytes: 3500, TopKCandidates: topK}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
