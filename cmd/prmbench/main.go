// Command prmbench regenerates the paper's evaluation figures (Section 5,
// Figures 4–7) on the synthetic datasets. Each figure is printed as a text
// table: one row per x value, one column per estimator.
//
//	prmbench -fig 4a                 # one figure
//	prmbench -fig all -rows 150000   # the whole evaluation at paper scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"prmsel/internal/datagen"
	"prmsel/internal/dataset"
	"prmsel/internal/eval"
	"prmsel/internal/obs"
	"prmsel/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prmbench: ")
	figFlag := flag.String("fig", "all", "figure to regenerate: 4a,4b,4c,5a,5b,5c,6a,6b,6c,7a,7b,7c, ab-scoring, ab-topk, or all")
	csvOut := flag.Bool("csv", false, "emit figures as CSV instead of aligned text")
	rows := flag.Int("rows", 40000, "census rows (the paper used ≈150000)")
	scale := flag.Float64("scale", 1.0, "TB/FIN scale (1.0 = paper sizes)")
	maxq := flag.Int("maxq", 2000, "per-suite query cap (0 = every instantiation)")
	seed := flag.Int64("seed", 1, "generator and estimator seed")
	trace := flag.Bool("trace", false, "print a span tree per figure (structure-search progress and timings) to stderr")
	flag.Parse()

	opt := eval.Options{MaxQueries: *maxq, Seed: *seed}
	figs := strings.Split(*figFlag, ",")
	if *figFlag == "all" {
		figs = []string{"4a", "4b", "4c", "5a", "5b", "5c", "6a", "6b", "6c", "7a", "7b", "7c"}
	}

	var censusDB, tbDB, finDB *dataset.Database
	census := func() *dataset.Database {
		if censusDB == nil {
			log.Printf("generating census (%d rows)", *rows)
			censusDB = datagen.Census(*rows, *seed)
		}
		return censusDB
	}
	tb := func() *dataset.Database {
		if tbDB == nil {
			log.Printf("generating TB (scale %.2f)", *scale)
			tbDB = datagen.TB(*scale, *seed)
		}
		return tbDB
	}
	fin := func() *dataset.Database {
		if finDB == nil {
			log.Printf("generating FIN (scale %.2f)", *scale)
			finDB = datagen.FIN(*scale, *seed)
		}
		return finDB
	}

	for _, id := range figs {
		figOpt := opt
		var tr *obs.Tracer
		if *trace {
			tr = obs.NewTracer("fig-" + id)
			figOpt.Trace = tr.Root()
		}
		fig, err := runFigure(id, census, tb, fin, figOpt)
		if err != nil {
			log.Fatalf("figure %s: %v", id, err)
		}
		if tr != nil {
			tr.End()
			fmt.Fprint(os.Stderr, tr.Root().Tree())
		}
		if fig != nil {
			render := fig.Render
			if *csvOut {
				render = fig.RenderCSV
			}
			if err := render(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
}

// runFigure dispatches one figure id. Fig 5c prints its scatter itself and
// returns a nil figure.
func runFigure(id string, census, tb, fin func() *dataset.Database, opt eval.Options) (*eval.Figure, error) {
	switch id {
	case "4a":
		return eval.Fig4(census(), "4a", []string{"Age", "Income"},
			[]int{200, 400, 600, 800, 1000, 1200}, opt)
	case "4b":
		return eval.Fig4(census(), "4b", []string{"Age", "HoursPerWeek", "Income"},
			[]int{500, 1500, 2500, 3500}, opt)
	case "4c":
		return eval.Fig4(census(), "4c", []string{"Age", "Education", "HoursPerWeek", "Income"},
			[]int{500, 1500, 2500, 3500, 4500, 5500}, opt)
	case "5a":
		return eval.Fig5(census(), "5a", []string{"WorkerClass", "Education", "MaritalStatus"},
			[]int{1500, 2500, 3500, 4500}, opt)
	case "5b":
		return eval.Fig5(census(), "5b", []string{"Income", "Industry", "Age", "EmployType"},
			[]int{1500, 3500, 5500, 7500, 9500}, opt)
	case "5c":
		points, err := eval.Fig5c(census(), []string{"Income", "Industry", "Age"}, 9300, opt)
		if err != nil {
			return nil, err
		}
		printScatter(points)
		return nil, nil
	case "6a":
		w := eval.TBWorkload(tb())
		targets := []query.Target{
			{Var: "c", Attr: "Contype"},
			{Var: "p", Attr: "Age"},
			{Var: "s", Attr: "DrugResistant"},
		}
		return eval.Fig6a(w, targets, []int{300, 1300, 2300, 3300, 4300}, opt)
	case "6b":
		w := eval.TBWorkload(tb())
		suites := [][]query.Target{
			{{Var: "c", Attr: "Contype"}, {Var: "p", Attr: "Age"}},
			{{Var: "p", Attr: "HIV"}, {Var: "s", Attr: "Unique"}},
			{{Var: "c", Attr: "Infected"}, {Var: "p", Attr: "USBorn"}, {Var: "s", Attr: "DrugResistant"}},
		}
		return eval.Fig6Sets("6b", w, suites, 4400, opt)
	case "6c":
		w := eval.FINWorkload(fin())
		suites := [][]query.Target{
			{{Var: "t", Attr: "Type"}, {Var: "a", Attr: "Balance"}},
			{{Var: "t", Attr: "Amount"}, {Var: "a", Attr: "Frequency"}, {Var: "d", Attr: "AvgSalary"}},
			{{Var: "t", Attr: "Channel"}, {Var: "a", Attr: "CardType"}, {Var: "d", Attr: "Urban"}},
		}
		return eval.Fig6Sets("6c", w, suites, 2000, opt)
	case "7a":
		return eval.Fig7a(census(), []int{500, 2500, 4500, 6500, 8500}, opt)
	case "7b":
		return eval.Fig7b([]int{16000, 32000, 64000, 128000}, 3500, opt)
	case "7c":
		return eval.Fig7c(census(), []int{1000, 3000, 5000, 7000, 9000},
			[]string{"WorkerClass", "Education", "MaritalStatus"}, opt)
	case "ab-scoring":
		return eval.AblationScoring(census(), []string{"WorkerClass", "Education", "MaritalStatus"},
			[]int{1500, 3000, 4500}, opt)
	case "ab-topk":
		return eval.AblationTopK(census(), []string{"WorkerClass", "Education", "MaritalStatus"},
			3500, []int{0, 2, 3, 5}, opt)
	default:
		return nil, fmt.Errorf("unknown figure id %q", id)
	}
}

func printScatter(points []eval.ScatterPoint) {
	fmt.Println("Figure 5c: per-query adjusted relative error, SAMPLE (x) vs PRM (y)")
	var prmMean, sampleMean float64
	prmWins := 0
	for _, p := range points {
		prmMean += p.PRMErr
		sampleMean += p.SampleErr
		if p.PRMErr < p.SampleErr {
			prmWins++
		}
	}
	n := float64(len(points))
	fmt.Printf("  queries: %d   mean SAMPLE err: %.1f%%   mean PRM err: %.1f%%   PRM strictly better on %d\n",
		len(points), sampleMean/n, prmMean/n, prmWins)
	fmt.Println("  sample of points (SAMPLE%, PRM%):")
	step := len(points) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(points); i += step {
		fmt.Printf("    %8.1f %8.1f\n", points[i].SampleErr, points[i].PRMErr)
	}
}
