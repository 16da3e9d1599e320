package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"prmsel/internal/bayesnet"
	"prmsel/internal/datagen"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
	"prmsel/internal/query"
)

// modelDTO learns a small model of the given CPD kind and returns its raw
// wire form, so a test can damage it the way a corrupt or adversarial
// stream would before Decode sees it. Variables: 0 Person.Income (parent
// 1), 1 Person.Owner, 2 Purchase.Amount, 3 Purchase~Buyer (parents 0, 2,
// 1); only 0 and 1 are parents of another variable.
func modelDTO(t testing.TB, kind learn.CPDKind) prmDTO {
	t.Helper()
	m, err := Learn(skewDB(t, 200, 800, 3), Config{
		Fit:    learn.FitConfig{Kind: kind},
		Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var d prmDTO
	if err := gob.NewDecoder(&buf).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func encodeDTO(t testing.TB, d prmDTO) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstLeaf returns the leftmost leaf of a tree CPD.
func firstLeaf(c *bayesnet.TreeCPD) *bayesnet.TreeNode {
	n := c.Root
	for !n.IsLeaf() {
		n = n.Children[0]
	}
	return n
}

// leCuts returns a balanced tree of OpLE splits on parent p at the
// sorted operands cuts, with uniform leaves over two child values.
func leCuts(p int, cuts []int32) *bayesnet.TreeNode {
	if len(cuts) == 0 {
		return &bayesnet.TreeNode{Dist: []float64{0.5, 0.5}}
	}
	mid := len(cuts) / 2
	return &bayesnet.TreeNode{Split: p, Op: bayesnet.OpLE, Arg: cuts[mid],
		Children: []*bayesnet.TreeNode{leCuts(p, cuts[:mid]), leCuts(p, cuts[mid+1:])}}
}

// TestDecodeRejectsCorruptModels walks the invariants Decode must prove.
// Each mutation used to reach inference as an index panic or as counts
// computed from rows that are not distributions; each must now come back
// as an error naming the variable at fault (the cycle and unknown-variable
// cases have no single variable to name).
func TestDecodeRejectsCorruptModels(t *testing.T) {
	cases := []struct {
		name    string
		table   bool // start from the table-CPD model instead of the tree one
		mutate  func(*prmDTO)
		wantVar string
		wantSub string
	}{
		{"zero cardinality", false, func(d *prmDTO) { d.Vars[0].Card = 0 }, "Person.Income", "cardinality 0"},
		{"negative cardinality", false, func(d *prmDTO) { d.Vars[2].Card = -3 }, "Purchase.Amount", "cardinality -3"},
		{"implausible cardinality", false, func(d *prmDTO) { d.Vars[2].Card = 1 << 26 }, "Purchase.Amount", "outside [1, 1048576]"},
		{"cardinality mismatch", false, func(d *prmDTO) { d.Vars[2].Card = 3 }, "Purchase.Amount", "child card 2, want 3"},
		{"out-of-range parent", false, func(d *prmDTO) { d.Parents[2] = []int{99} }, "Purchase.Amount", "out-of-range parent"},
		{"negative parent", false, func(d *prmDTO) { d.Parents[2] = []int{-1} }, "Purchase.Amount", "out-of-range parent"},
		{"self parent", false, func(d *prmDTO) {
			d.Parents[2] = []int{2}
			d.Trees[2].ParentCards = []int{2}
		}, "", "cyclic"},
		{"duplicate parent", false, func(d *prmDTO) { d.Parents[3] = []int{0, 2, 0} }, "Purchase~Buyer", "duplicate parent Person.Income"},
		{"parent cycle", false, func(d *prmDTO) {
			// 1 is already a parent of 0; adding 0 as a parent of 1
			// closes a cycle.
			d.Parents[1] = []int{0}
			d.Trees[1].ParentCards = []int{2}
		}, "", "cyclic"},
		{"CPD for unknown variable", false, func(d *prmDTO) { d.Trees[42] = d.Trees[0] }, "", "unknown variable 42"},
		{"missing CPD", false, func(d *prmDTO) { delete(d.Trees, 0) }, "Person.Income", "no CPD"},
		{"malformed tree", false, func(d *prmDTO) { d.Trees[2].Root = &bayesnet.TreeNode{} }, "Purchase.Amount", "no children"},
		{"unnormalized distribution", false, func(d *prmDTO) {
			for i := range firstLeaf(d.Trees[1]).Dist {
				firstLeaf(d.Trees[1]).Dist[i] *= 5
			}
		}, "Person.Owner", "sums to 5"},
		{"negative probability", false, func(d *prmDTO) {
			copy(firstLeaf(d.Trees[1]).Dist, []float64{-0.1, 1.1})
		}, "Person.Owner", "not a probability"},
		{"NaN entry", false, func(d *prmDTO) { firstLeaf(d.Trees[3]).Dist[0] = math.NaN() }, "Purchase~Buyer", "NaN is not a probability"},
		{"short leaf", false, func(d *prmDTO) {
			leaf := firstLeaf(d.Trees[0])
			leaf.Dist = leaf.Dist[:1]
		}, "Person.Income", "leaf has 1 entries, want 2"},
		{"CPD row length mismatch", true, func(d *prmDTO) { d.Tables[3].Dist = d.Tables[3].Dist[:2] }, "Purchase~Buyer", "has 2 entries"},
		{"negative table size", false, func(d *prmDTO) { d.TableSize["Purchase"] = -800 }, "Purchase", "table size -800"},
		{"oversize tree", false, func(d *prmDTO) {
			// A well-formed model in which Purchase.Amount's tree splits
			// every value of one 8,192-value parent apart and cuts the
			// other into 1,025 classes below one branch: served over
			// classes it still needs 2·8192·1025 cells, plus 8192·1025
			// for the class map (2^28 cells dense).
			const card = 1 << 13
			d.Vars[0].Card, d.Parents[0], d.Trees[0] = card, nil, bayesnet.NewTreeCPD(card, nil)
			d.Vars[1].Card, d.Parents[1], d.Trees[1] = card, nil, bayesnet.NewTreeCPD(card, nil)
			tree := bayesnet.NewTreeCPD(2, []int{2, card, card})
			tree.Root = &bayesnet.TreeNode{Split: 1, Children: make([]*bayesnet.TreeNode, card)}
			for v := range tree.Root.Children {
				tree.Root.Children[v] = &bayesnet.TreeNode{Dist: []float64{0.5, 0.5}}
			}
			cuts := make([]int32, 1024)
			for j := range cuts {
				cuts[j] = int32(8*j + 3)
			}
			tree.Root.Children[0] = leCuts(2, cuts)
			d.Parents[2], d.Trees[2] = []int{3, 0, 1}, tree
			d.Parents[3], d.Trees[3] = nil, bayesnet.NewTreeCPD(2, nil)
		}, "Purchase.Amount", "more than 16777216 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind := learn.Tree
			if tc.table {
				kind = learn.Table
			}
			d := modelDTO(t, kind)
			tc.mutate(&d)
			_, err := Decode(bytes.NewReader(encodeDTO(t, d)))
			if err == nil {
				t.Fatal("Decode accepted a corrupt model")
			}
			if !strings.Contains(err.Error(), tc.wantSub) || !strings.Contains(err.Error(), tc.wantVar) {
				t.Fatalf("err = %v, want mention of %q and %q", err, tc.wantVar, tc.wantSub)
			}
		})
	}
}

// TestCodecRoundTripsServedModels: every model the service can learn or
// refit decodes — the five built-in datasets, tree and table CPDs, as
// learned, after RefitParameters on a second draw of the data, and after
// RefitFromStats — and decodes to identical parameters. The learned trees
// include binary (OpEQ and OpLE) splits, so the round trip covers them.
func TestCodecRoundTripsServedModels(t *testing.T) {
	datasets := []struct {
		name string
		gen  func(seed int64) *dataset.Database
	}{
		{"census", func(seed int64) *dataset.Database { return datagen.Census(2000, seed) }},
		{"tb", func(seed int64) *dataset.Database { return datagen.TB(0.05, seed) }},
		{"fin", func(seed int64) *dataset.Database { return datagen.FIN(0.05, seed) }},
		{"shop", func(seed int64) *dataset.Database { return datagen.Shop(0.05, seed) }},
		{"fig1", func(int64) *dataset.Database { return datagen.Fig1Example() }},
	}
	splits := map[bayesnet.SplitOp]int{}
	roundTrip := func(t *testing.T, stage string, m *PRM) {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for id := 0; id < m.NumVars(); id++ {
			if !reflect.DeepEqual(back.CPD(id), m.CPD(id)) {
				t.Fatalf("%s: %s CPD changed in the round trip", stage, m.Var(id).Name())
			}
			if tree, ok := m.CPD(id).(*bayesnet.TreeCPD); ok {
				tree.Walk(func(n *bayesnet.TreeNode) {
					if !n.IsLeaf() {
						splits[n.Op]++
					}
				})
			}
		}
	}
	for _, ds := range datasets {
		for _, kind := range []learn.CPDKind{learn.Tree, learn.Table} {
			t.Run(ds.name+"/"+kind.String(), func(t *testing.T) {
				m, err := Learn(ds.gen(1), Config{
					Fit:    learn.FitConfig{Kind: kind},
					Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 4400, MaxParents: 4, Seed: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				roundTrip(t, "learned", m)
				if err := m.RefitParameters(ds.gen(2)); err != nil {
					t.Fatal(err)
				}
				roundTrip(t, "refit", m)
				st, err := m.BuildStats(ds.gen(3))
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RefitFromStats(st); err != nil {
					t.Fatal(err)
				}
				roundTrip(t, "refit from stats", m)
			})
		}
	}
	if splits[bayesnet.OpEQ] == 0 || splits[bayesnet.OpLE] == 0 {
		t.Errorf("learned trees split %v times by kind; the round trip must cover OpEQ and OpLE", splits)
	}
}

// FuzzDecode feeds arbitrary bytes (seeded with a small valid model and a
// few mutants) into Decode: whatever comes back must be an error or a
// model whose estimates work — never a panic, a recovered panic, or a
// count that is negative or not finite.
func FuzzDecode(f *testing.F) {
	m, err := Learn(skewDB(f, 20, 40, 1), Config{
		Fit:    learn.FitConfig{Kind: learn.Table},
		Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 200},
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not gob at all"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0xff
	f.Add(flip)
	// Framed store snapshots (internal/store's on-disk format, which this
	// package cannot import without a cycle): magic "PRMSNAP1", a version
	// byte, the payload's CRC32-IEEE (LE), the payload length (LE uint64),
	// then the gob stream. Decode sees these when a whole snapshot file is
	// fed to a raw-model reader such as LoadModel; it must reject them
	// cleanly, never panic partway into the gob.
	frame := func(payload []byte) []byte {
		b := []byte("PRMSNAP1")
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
		return append(b, payload...)
	}
	framed := frame(valid)
	f.Add(framed)
	f.Add(framed[:len(framed)/2])
	f.Add(frame(nil))
	f.Add([]byte("PRMSNAP1"))
	// A model serving its variable 0, Purchase.Amount, over classes: its
	// tree reads Person.Income (64 values) through an OpLE, an OpEQ and
	// a second OpLE, splits the join indicator by value, and never reads
	// Person.Owner (64 values), so fuzzing its bytes reaches the class
	// maps through the query on variable 0. Dyadic probabilities keep the
	// seed small, and with it the fuzzer's minimization of its mutants.
	d := modelDTO(f, learn.Tree)
	income, owner, amount, buyer := d.Vars[0], d.Vars[1], d.Vars[2], d.Vars[3]
	income.Card, owner.Card, amount.Card = 64, 64, 8
	d.Vars = []Var{amount, income, owner, buyer}
	d.Parents = [][]int{{3, 1, 2}, nil, nil, nil}
	leaf := func() *bayesnet.TreeNode { return bayesnet.NewTreeCPD(8, nil).Root }
	byJoin := &bayesnet.TreeNode{Split: 0, Op: bayesnet.OpValue, Children: []*bayesnet.TreeNode{
		leaf(),
		{Split: 1, Op: bayesnet.OpLE, Arg: 47, Children: []*bayesnet.TreeNode{leaf(), leaf()}},
	}}
	d.Trees = map[int]*bayesnet.TreeCPD{
		0: {ChildCard: 8, ParentCards: []int{2, 64, 64}, Root: &bayesnet.TreeNode{
			Split: 1, Op: bayesnet.OpLE, Arg: 31, Children: []*bayesnet.TreeNode{
				{Split: 1, Op: bayesnet.OpEQ, Arg: 7, Children: []*bayesnet.TreeNode{leaf(), leaf()}},
				byJoin,
			}}},
		1: bayesnet.NewTreeCPD(64, nil),
		2: bayesnet.NewTreeCPD(64, nil),
		3: bayesnet.NewTreeCPD(2, nil),
	}
	coarse := encodeDTO(f, d)
	if m, err := Decode(bytes.NewReader(coarse)); err != nil || m.serving[0].coarse == nil {
		f.Fatalf("the coarsened seed does not decode to a model serving variable 0 over classes: %v", err)
	}
	f.Add(coarse)
	flipped := append([]byte(nil), coarse...)
	flipped[2*len(flipped)/3] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil || m.NumVars() == 0 {
			return
		}
		v := m.Var(0)
		q := query.New().Over("x", v.Table)
		if v.Kind == AttrVar {
			q = q.WhereEq("x", v.Attr, 0)
		}
		est, err := m.EstimateCount(q)
		var ie *InternalError
		if errors.As(err, &ie) {
			t.Fatalf("accepted model panicked in inference: %v", ie.Value)
		}
		if err == nil && (est < 0 || math.IsNaN(est) || math.IsInf(est, 0)) {
			t.Fatalf("accepted model estimated %v", est)
		}
	})
}
