package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prmsel/internal/bayesnet"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
	"prmsel/internal/query"
)

func purchaseCountQuery() *query.Query {
	return query.New().Over("u", "Purchase").Over("p", "Person").
		KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", 1).WhereEq("u", "Amount", 1)
}

func clonePRM(t testing.TB, m *PRM) *PRM {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wideDB builds skewDB's schema with a 300-value Income: person i has
// income i mod 300, and a buyer whose income code is at least 256 is 8x
// more likely per purchase. Codes v and v+256 must keep separate cells
// everywhere a join indicator reads Income.
func wideDB(t testing.TB, nPeople, nPurch int, seed int64) *dataset.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	incomes := make([]string, 300)
	for i := range incomes {
		incomes[i] = fmt.Sprintf("inc%03d", i)
	}
	person := dataset.NewTable(dataset.Schema{
		Name: "Person",
		Attributes: []dataset.Attribute{
			{Name: "Income", Values: incomes},
			{Name: "Owner", Values: []string{"no", "yes"}},
		},
	})
	var cum []float64
	var total float64
	for i := 0; i < nPeople; i++ {
		inc := int32(i % 300)
		person.MustAppendRow([]int32{inc, int32(rng.Intn(2))}, nil)
		w := 1.0
		if inc >= 256 {
			w = 8
		}
		total += w
		cum = append(cum, total)
	}
	purch := dataset.NewTable(dataset.Schema{
		Name:        "Purchase",
		Attributes:  []dataset.Attribute{{Name: "Amount", Values: []string{"small", "large"}}},
		ForeignKeys: []dataset.ForeignKey{{Name: "Buyer", To: "Person"}},
	})
	for i := 0; i < nPurch; i++ {
		row, _ := slices.BinarySearch(cum, rng.Float64()*total)
		purch.MustAppendRow([]int32{int32(rng.Intn(2))}, []int32{int32(row)})
	}
	db := dataset.NewDatabase()
	for _, tbl := range []*dataset.Table{person, purch} {
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// growSkewDB appends n random rows to a database of skewDB's schema,
// folding each into st (append-then-apply). Roughly a third go to Person,
// the rest to Purchase referencing a random existing person; attribute
// values are uniform over their domains.
func growSkewDB(t testing.TB, db *dataset.Database, st *ModelStats, n int, rng *rand.Rand) {
	t.Helper()
	person := db.Table("Person")
	purch := db.Table("Purchase")
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			attrs := []int32{int32(rng.Intn(person.Attributes[0].Card())), int32(rng.Intn(2))}
			if err := person.AppendRow(attrs, nil); err != nil {
				t.Fatal(err)
			}
			if err := st.ApplyInsert(db, "Person", person.Len()-1); err != nil {
				t.Fatal(err)
			}
		} else {
			attrs := []int32{int32(rng.Intn(2))}
			fk := []int32{int32(rng.Intn(person.Len()))}
			if err := purch.AppendRow(attrs, fk); err != nil {
				t.Fatal(err)
			}
			if err := st.ApplyInsert(db, "Purchase", purch.Len()-1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bruteCounts counts variable id's observations given parents straight
// from the definition, sharing no code with the counting under test. An
// attribute observes each row of its table: a parent in another table is
// read through the row's first foreign key to that table, and a
// join-indicator parent reads true. A join indicator observes every pair
// (r, s) of R×S, true exactly when r's key names s.
func bruteCounts(db *dataset.Database, vars []Var, id int, parents []int) *learn.Counts {
	v := vars[id]
	cards := []int{v.Card}
	for _, p := range parents {
		cards = append(cards, vars[p].Card)
	}
	c := learn.NewCounts(cards)
	vals := make([]int32, len(cards))
	attr := func(tbl *dataset.Table, row int, name string) int32 { return tbl.Value(row, tbl.AttrIndex(name)) }
	r := db.Table(v.Table)
	if v.Kind == AttrVar {
		for row := 0; row < r.Len(); row++ {
			vals[0] = attr(r, row, v.Attr)
			for i, p := range parents {
				pv := vars[p]
				switch {
				case pv.Kind == JoinVar:
					vals[i+1] = JoinTrue
				case pv.Table == v.Table:
					vals[i+1] = attr(r, row, pv.Attr)
				default:
					for fi, fk := range r.ForeignKeys {
						if fk.To == pv.Table {
							vals[i+1] = attr(db.Table(pv.Table), int(r.FKCol(fi)[row]), pv.Attr)
							break
						}
					}
				}
			}
			c.Add(vals, 1)
		}
		return c
	}
	s := db.Table(v.Ref)
	refs := r.FKCol(r.FKIndex(v.FK))
	for row := 0; row < r.Len(); row++ {
		for sRow := 0; sRow < s.Len(); sRow++ {
			vals[0] = JoinFalse
			if int(refs[row]) == sRow {
				vals[0] = JoinTrue
			}
			for i, p := range parents {
				if pv := vars[p]; pv.Table == v.Table {
					vals[i+1] = attr(r, row, pv.Attr)
				} else {
					vals[i+1] = attr(s, sRow, pv.Attr)
				}
			}
			c.Add(vals, 1)
		}
	}
	return c
}

// assertSameCounts requires two contingencies to be equal bit for bit.
func assertSameCounts(t testing.TB, name string, got, want *learn.Counts) {
	t.Helper()
	if !slices.Equal(got.Cards, want.Cards) {
		t.Fatalf("%s: cards %v, want %v", name, got.Cards, want.Cards)
	}
	if got.N != want.N || len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: N %v over %d cells, want %v over %d", name, got.N, len(got.Cells), want.N, len(want.Cells))
	}
	for k, w := range want.Cells {
		if got.Cells[k] != w {
			vals := make([]int32, len(want.Cards))
			want.Unpack(k, vals)
			t.Fatalf("%s: cell %v = %v, want %v", name, vals, got.Cells[k], w)
		}
	}
}

// countDBs are the databases the counting differentials run on: skewDB,
// and wideDB, whose join indicator reads a 300-value parent.
var countDBs = []struct {
	name string
	gen  func(t testing.TB) *dataset.Database
}{
	{"skew", func(t testing.TB) *dataset.Database { return skewDB(t, 150, 600, 11) }},
	{"wide", func(t testing.TB) *dataset.Database { return wideDB(t, 600, 3000, 3) }},
}

// learnCountDB learns db's model and, on the wide database, requires the
// join indicator to read Income, so the wide parent is exercised.
func learnCountDB(t *testing.T, name string, db *dataset.Database) *PRM {
	t.Helper()
	m := learnPRM(t, db, false)
	j, inc := m.JoinVarID("Purchase", "Buyer"), m.AttrVarID("Person", "Income")
	if name == "wide" && !slices.Contains(m.Parents(j), inc) {
		t.Fatalf("learned structure leaves Income out of the join indicator's parents:\n%s", m)
	}
	return m
}

// TestCountsMatchBruteForce: every source of counts — the learner's
// readers over each variable's full candidate parent set, BuildStats over
// the learned structure, and BuildStats grown by a stream of ApplyInsert
// calls — equals the brute-force count from the definition, bit for bit.
// The log-likelihood scored from those counts returns the same bits on
// repeated calls and agrees with the brute-force score.
func TestCountsMatchBruteForce(t *testing.T) {
	for _, tc := range countDBs {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.gen(t)
			vars, index, _, err := buildVars(db)
			if err != nil {
				t.Fatal(err)
			}
			o := newPRMOracle(db, Config{}, vars, index)
			for id, v := range vars {
				parents := o.CandidateParents(id)
				var got *learn.Counts
				if v.Kind == AttrVar {
					got, err = attrCounts(db, vars, id, parents)
				} else {
					var js *joinStats
					if js, err = joinCounts(db, vars, id, parents); err == nil {
						got = js.derive()
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				assertSameCounts(t, "learner "+v.Name(), got, bruteCounts(db, vars, id, parents))
			}

			m := learnCountDB(t, tc.name, db)
			st, err := m.BuildStats(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, stage := range []string{"BuildStats", "ApplyInsert"} {
				if stage == "ApplyInsert" {
					growSkewDB(t, db, st, 400, rand.New(rand.NewSource(17)))
				}
				var bruteLL float64
				for id := range m.vars {
					want := bruteCounts(db, m.vars, id, m.parents[id])
					assertSameCounts(t, stage+" "+m.vars[id].Name(), st.counts(id), want)
					vals := make([]int32, len(want.Cards))
					for k, w := range want.Cells {
						want.Unpack(k, vals)
						if p := m.CPD(id).Prob(vals[0], vals[1:]); p > 0 {
							bruteLL += w * math.Log(p)
						} else {
							bruteLL += w * -30
						}
					}
				}
				ll, err := m.LogLikelihood(db)
				if err != nil {
					t.Fatal(err)
				}
				if again, _ := m.LogLikelihood(db); again != ll {
					t.Fatalf("%s: LogLikelihood %v, then %v on the same data", stage, ll, again)
				}
				if math.Abs(ll-bruteLL) > 1e-12*math.Abs(bruteLL) {
					t.Fatalf("%s: LogLikelihood %v, brute force %v", stage, ll, bruteLL)
				}
			}
		})
	}
}

// TestRefitFromStatsMatchesScan is the refit differential: after a random
// insert stream, refitting from incrementally maintained statistics
// (RefitFromStats) and from a scan of the final tables (RefitParameters)
// must both give bit-for-bit the parameters the brute-force counts from
// the definition give. Equality is exact — all weights are integers below
// 2^53, so float64 accumulation is exact and the normalizing divisions are
// identical.
func TestRefitFromStatsMatchesScan(t *testing.T) {
	for _, tc := range countDBs {
		for _, inserts := range []int{0, 400} {
			db := tc.gen(t)
			m := learnCountDB(t, tc.name, db)
			scan, ref := clonePRM(t, m), clonePRM(t, m)

			st, err := m.BuildStats(db)
			if err != nil {
				t.Fatal(err)
			}
			growSkewDB(t, db, st, inserts, rand.New(rand.NewSource(int64(5+inserts))))

			if err := m.RefitFromStats(st); err != nil {
				t.Fatal(err)
			}
			if err := scan.RefitParameters(db); err != nil {
				t.Fatal(err)
			}
			refEp := ref.params()
			for id := range ref.vars {
				if err := learn.RefitCPD(refEp.cpds[id], bruteCounts(db, ref.vars, id, ref.parents[id])); err != nil {
					t.Fatal(err)
				}
			}

			mep, scanEp := m.params(), scan.params()
			for id := range m.vars {
				name := fmt.Sprintf("%s/%d %s", tc.name, inserts, m.vars[id].Name())
				assertSameDists(t, name+" (stats)", mep.cpds[id], refEp.cpds[id])
				assertSameDists(t, name+" (scan)", scanEp.cpds[id], refEp.cpds[id])
			}
			for _, tn := range db.TableNames() {
				n := int64(db.Table(tn).Len())
				if mep.tableSize[tn] != n || scanEp.tableSize[tn] != n || st.Rows(tn) != n {
					t.Fatalf("%s/%d: %s sizes %d (stats), %d (scan), %d (rows), table has %d",
						tc.name, inserts, tn, mep.tableSize[tn], scanEp.tableSize[tn], st.Rows(tn), n)
				}
			}
		}
	}
}

// TestStatsEstimatesTrackInserts: after ingesting rows the refit model's
// estimates reflect the new data, not the build-time snapshot.
func TestStatsEstimatesTrackInserts(t *testing.T) {
	db := skewDB(t, 150, 600, 7)
	m := learnPRM(t, db, false)
	st, err := m.BuildStats(db)
	if err != nil {
		t.Fatal(err)
	}
	growSkewDB(t, db, st, 600, rand.New(rand.NewSource(3)))
	if err := m.RefitFromStats(st); err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateCount(purchaseCountQuery())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db.Count(purchaseCountQuery())
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.5 {
		t.Fatalf("post-ingest estimate %0.1f vs truth %d (rel err %.2f)", est, truth, re)
	}
}

func TestBuildStatsRejectsSchemaMismatch(t *testing.T) {
	db := skewDB(t, 50, 100, 1)
	m := learnPRM(t, db, false)
	other := dataset.NewDatabase()
	if _, err := m.BuildStats(other); err == nil {
		t.Fatal("BuildStats accepted a database missing the model's tables")
	}
	db2 := skewDB(t, 50, 100, 2)
	m2 := learnPRM(t, db2, false)
	st, err := m2.BuildStats(db2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RefitFromStats(st); err == nil {
		t.Fatal("RefitFromStats accepted statistics from a different model")
	}
}

func TestApplyInsertValidatesRow(t *testing.T) {
	db := skewDB(t, 50, 100, 1)
	m := learnPRM(t, db, false)
	st, err := m.BuildStats(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyInsert(db, "Nope", 0); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := st.ApplyInsert(db, "Person", db.Table("Person").Len()); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

// assertSameDists requires exact float64 equality of every distribution
// entry in two CPDs of the same structure.
func assertSameDists(t testing.TB, name string, a, b bayesnet.CPD) {
	t.Helper()
	switch ca := a.(type) {
	case *bayesnet.TableCPD:
		cb, ok := b.(*bayesnet.TableCPD)
		if !ok || len(ca.Dist) != len(cb.Dist) {
			t.Fatalf("%s: table CPD shape mismatch", name)
		}
		for i := range ca.Dist {
			if ca.Dist[i] != cb.Dist[i] {
				t.Fatalf("%s: dist[%d] = %v, want %v", name, i, ca.Dist[i], cb.Dist[i])
			}
		}
	case *bayesnet.TreeCPD:
		cb, ok := b.(*bayesnet.TreeCPD)
		if !ok {
			t.Fatalf("%s: tree CPD kind mismatch", name)
		}
		var da, dbb [][]float64
		ca.Walk(func(n *bayesnet.TreeNode) {
			if n.IsLeaf() {
				da = append(da, n.Dist)
			}
		})
		cb.Walk(func(n *bayesnet.TreeNode) {
			if n.IsLeaf() {
				dbb = append(dbb, n.Dist)
			}
		})
		if len(da) != len(dbb) {
			t.Fatalf("%s: leaf count %d vs %d", name, len(da), len(dbb))
		}
		for i := range da {
			for j := range da[i] {
				if da[i][j] != dbb[i][j] {
					t.Fatalf("%s: leaf %d dist[%d] = %v, want %v", name, i, j, da[i][j], dbb[i][j])
				}
			}
		}
	default:
		t.Fatalf("%s: unexpected CPD kind %T", name, a)
	}
}
