package bayesnet

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1Net builds the paper's Figure 1(b) factored model:
// P(E), P(I|E), P(H|I) with the exact published numbers.
func fig1Net(t testing.TB) *Network {
	net := New([]Variable{
		{Name: "Education", Card: 3},
		{Name: "Income", Card: 3},
		{Name: "HomeOwner", Card: 2},
	})
	e := NewTableCPD(3, nil)
	copy(e.Dist, []float64{0.5, 0.3, 0.2})
	net.SetCPD(0, e)

	net.SetParents(1, []int{0})
	i := NewTableCPD(3, []int{3})
	i.SetDist([]int32{0}, []float64{0.6, 0.3, 0.1}) // E = high-school
	i.SetDist([]int32{1}, []float64{0.5, 0.3, 0.2}) // E = college
	i.SetDist([]int32{2}, []float64{0.1, 0.3, 0.6}) // E = advanced
	net.SetCPD(1, i)

	net.SetParents(2, []int{1})
	h := NewTableCPD(2, []int{3})
	h.SetDist([]int32{0}, []float64{0.9, 0.1})
	h.SetDist([]int32{1}, []float64{0.7, 0.3})
	h.SetDist([]int32{2}, []float64{0.1, 0.9})
	net.SetCPD(2, h)

	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

// fig1Joint is Figure 1(a): P(E,I,H) indexed [e][i][h].
var fig1Joint = [3][3][2]float64{
	{{0.27, 0.03}, {0.105, 0.045}, {0.005, 0.045}},
	{{0.135, 0.015}, {0.063, 0.027}, {0.006, 0.054}},
	{{0.018, 0.002}, {0.042, 0.018}, {0.012, 0.108}},
}

// TestFigure1FactoredJointMatchesFull verifies the paper's worked example:
// the factored representation (Fig 1b) encodes exactly the joint of Fig 1a.
func TestFigure1FactoredJointMatchesFull(t *testing.T) {
	net := fig1Net(t)
	for e := int32(0); e < 3; e++ {
		for i := int32(0); i < 3; i++ {
			for h := int32(0); h < 2; h++ {
				want := fig1Joint[e][i][h]
				got := net.JointProb([]int32{e, i, h})
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("P(E=%d,I=%d,H=%d) = %v, want %v", e, i, h, got, want)
				}
			}
		}
	}
}

func TestFigure1ConditionalIndependence(t *testing.T) {
	// In Fig 1, H ⟂ E | I: P(h|i,e) must not depend on e.
	net := fig1Net(t)
	joint := net.JointFactor()
	for i := int32(0); i < 3; i++ {
		var ref float64
		for e := int32(0); e < 3; e++ {
			var pih, pi float64
			for h := int32(0); h < 2; h++ {
				p := joint.At([]int32{e, i, h})
				pi += p
				if h == 1 {
					pih = p
				}
			}
			cond := pih / pi
			if e == 0 {
				ref = cond
			} else if math.Abs(cond-ref) > 1e-12 {
				t.Errorf("P(H=t|I=%d,E=%d) = %v, want %v", i, e, cond, ref)
			}
		}
	}
}

func TestProbabilityEqualityEvent(t *testing.T) {
	net := fig1Net(t)
	// P(E=h, I=l, H=f) from Fig 1(a) = 0.27.
	p, err := net.Probability(Event{0: {0}, 1: {0}, 2: {0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.27) > 1e-12 {
		t.Errorf("P = %v, want 0.27", p)
	}
}

func TestProbabilityRangeEvent(t *testing.T) {
	net := fig1Net(t)
	// P(I ∈ {m,h}, H=t) = .045+.045+.027+.054+.018+.108 = 0.297
	p, err := net.Probability(Event{1: {1, 2}, 2: {1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.297) > 1e-12 {
		t.Errorf("P = %v, want 0.297", p)
	}
}

func TestProbabilityEmptyEventIsOne(t *testing.T) {
	net := fig1Net(t)
	p, err := net.Probability(Event{})
	if err != nil || p != 1 {
		t.Fatalf("P(∅) = %v, %v; want 1, nil", p, err)
	}
}

func TestProbabilityErrors(t *testing.T) {
	net := fig1Net(t)
	if _, err := net.Probability(Event{9: {0}}); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := net.Probability(Event{0: {}}); err == nil {
		t.Error("empty value set accepted")
	}
	if _, err := net.Probability(Event{0: {7}}); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

// randomNet generates a random DAG over n variables with random table CPDs.
func randomNet(rng *rand.Rand, n int) *Network {
	vars := make([]Variable, n)
	for i := range vars {
		vars[i] = Variable{Name: "V" + string(rune('A'+i)), Card: 2 + rng.Intn(3)}
	}
	net := New(vars)
	for v := 1; v < n; v++ {
		var parents []int
		for p := 0; p < v; p++ {
			if rng.Intn(3) == 0 {
				parents = append(parents, p)
			}
		}
		net.SetParents(v, parents)
	}
	for v := 0; v < n; v++ {
		cpd := NewTableCPD(vars[v].Card, net.ParentCards(v))
		configs := len(cpd.Dist) / vars[v].Card
		for c := 0; c < configs; c++ {
			var sum float64
			row := make([]float64, vars[v].Card)
			for x := range row {
				row[x] = rng.Float64() + 0.01
				sum += row[x]
			}
			for x := range row {
				cpd.Dist[c*vars[v].Card+x] = row[x] / sum
			}
		}
		net.SetCPD(v, cpd)
	}
	return net
}

// TestVariableEliminationMatchesJoint: P(evt) via VE equals the explicit
// sum over the materialized joint, for random nets and random events.
func TestVariableEliminationMatchesJoint(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNet(rng, 2+rng.Intn(4))
		if err := net.Validate(); err != nil {
			t.Fatalf("invalid random net: %v", err)
		}
		evt := Event{}
		for v := 0; v < net.NumVars(); v++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var set []int32
			for x := 0; x < net.Var(v).Card; x++ {
				if rng.Intn(2) == 0 {
					set = append(set, int32(x))
				}
			}
			if len(set) == 0 {
				set = []int32{0}
			}
			evt[v] = set
		}
		got, err := net.Probability(evt)
		if err != nil {
			return false
		}
		// Brute force over the joint.
		joint := net.JointFactor()
		accept := make([]map[int32]bool, net.NumVars())
		for v, set := range evt {
			accept[v] = make(map[int32]bool)
			for _, x := range set {
				accept[v][x] = true
			}
		}
		var want float64
		assignment := make([]int32, net.NumVars())
		var rec func(v int)
		rec = func(v int) {
			if v == net.NumVars() {
				ok := true
				for u, a := range accept {
					if a != nil && !a[assignment[u]] {
						ok = false
						break
					}
				}
				if ok {
					want += joint.At(assignment)
				}
				return
			}
			for x := 0; x < net.Var(v).Card; x++ {
				assignment[v] = int32(x)
				rec(v + 1)
			}
		}
		rec(0)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeCPDEquivalentTable(t *testing.T) {
	// A tree CPD that splits on its single parent must behave like the
	// equivalent table CPD.
	tree := NewTreeCPD(2, []int{3})
	tree.Root = &TreeNode{
		Split: 0,
		Children: []*TreeNode{
			{Dist: []float64{0.9, 0.1}},
			{Dist: []float64{0.7, 0.3}},
			{Dist: []float64{0.1, 0.9}},
		},
	}
	table := NewTableCPD(2, []int{3})
	table.SetDist([]int32{0}, []float64{0.9, 0.1})
	table.SetDist([]int32{1}, []float64{0.7, 0.3})
	table.SetDist([]int32{2}, []float64{0.1, 0.9})
	for pv := int32(0); pv < 3; pv++ {
		for x := int32(0); x < 2; x++ {
			if tree.Prob(x, []int32{pv}) != table.Prob(x, []int32{pv}) {
				t.Errorf("tree != table at x=%d, parent=%d", x, pv)
			}
		}
	}
	ftree := CPDFactor(tree, 5, []int{2}, 2, []int{3})
	ftable := CPDFactor(table, 5, []int{2}, 2, []int{3})
	for i := range ftree.Data {
		if math.Abs(ftree.Data[i]-ftable.Data[i]) > 1e-12 {
			t.Fatalf("factors differ at %d", i)
		}
	}
}

func TestTreeCPDSharedLeafSavesParams(t *testing.T) {
	// One leaf shared across parent values -> fewer params than a table.
	tree := NewTreeCPD(3, []int{4, 5})
	if got := tree.NumParams(); got != 2 {
		t.Errorf("single-leaf tree params = %d, want 2", got)
	}
	table := NewTableCPD(3, []int{4, 5})
	if got := table.NumParams(); got != 40 {
		t.Errorf("table params = %d, want 40", got)
	}
	if tree.StorageBytes() >= table.StorageBytes() {
		t.Errorf("tree bytes %d not below table bytes %d", tree.StorageBytes(), table.StorageBytes())
	}
}

func TestValidateCatchesMissingAndMalformedCPDs(t *testing.T) {
	net := New([]Variable{{Name: "A", Card: 2}, {Name: "B", Card: 2}})
	net.SetCPD(0, NewTableCPD(2, nil))
	if err := net.Validate(); err == nil {
		t.Error("missing CPD accepted")
	}
	net.SetCPD(1, NewTableCPD(3, nil)) // wrong child card
	if err := net.Validate(); err == nil {
		t.Error("mis-shaped CPD accepted")
	}
	net.SetParents(0, []int{1})
	net.SetParents(1, []int{0})
	if err := net.Validate(); err == nil {
		t.Error("cycle accepted")
	}
}

// wireRoundTrip sends every CPD of net through the wire form a model is
// stored in — core.Encode gob-encodes the *TableCPD and *TreeCPD values
// themselves, keyed by variable — and through CheckCPD, the check
// core.Decode runs on each decoded CPD. It returns a network with net's
// structure and the CPDs that came back.
func wireRoundTrip(t testing.TB, net *Network) *Network {
	t.Helper()
	type wire struct {
		Tables map[int]*TableCPD
		Trees  map[int]*TreeCPD
	}
	out := wire{Tables: map[int]*TableCPD{}, Trees: map[int]*TreeCPD{}}
	for v := 0; v < net.NumVars(); v++ {
		switch c := net.CPD(v).(type) {
		case *TableCPD:
			out.Tables[v] = c
		case *TreeCPD:
			out.Trees[v] = c
		default:
			t.Fatalf("variable %d: unexpected CPD %T", v, c)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	var in wire
	if err := gob.NewDecoder(&buf).Decode(&in); err != nil {
		t.Fatal(err)
	}
	vars := make([]Variable, net.NumVars())
	for v := range vars {
		vars[v] = net.Var(v)
	}
	back := New(vars)
	for v := range vars {
		var c CPD
		if tc, ok := in.Tables[v]; ok {
			c = tc
		} else if tc, ok := in.Trees[v]; ok {
			c = tc
		}
		if err := CheckCPD(c, vars[v].Card, net.ParentCards(v)); err != nil {
			t.Fatalf("%s: decoded CPD rejected: %v", vars[v].Name, err)
		}
		back.SetParents(v, net.Parents(v))
		back.SetCPD(v, c)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestEncodeDecodeRoundTrip: table and tree CPDs survive the wire form
// unchanged — the joint and the storage accounting match after it.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	net := fig1Net(t)
	// Swap one CPD for a tree to cover both kinds.
	tree := NewTreeCPD(2, []int{3})
	tree.Root = &TreeNode{
		Split: 0,
		Children: []*TreeNode{
			{Dist: []float64{0.9, 0.1}},
			{Dist: []float64{0.7, 0.3}},
			{Dist: []float64{0.1, 0.9}},
		},
	}
	net.SetCPD(2, tree)

	back := wireRoundTrip(t, net)
	for e := int32(0); e < 3; e++ {
		for i := int32(0); i < 3; i++ {
			for h := int32(0); h < 2; h++ {
				a := net.JointProb([]int32{e, i, h})
				b := back.JointProb([]int32{e, i, h})
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("joint differs after round trip at (%d,%d,%d)", e, i, h)
				}
			}
		}
	}
	if back.StorageBytes() != net.StorageBytes() {
		t.Errorf("storage bytes changed: %d -> %d", net.StorageBytes(), back.StorageBytes())
	}
}

// TestParameterCompression reproduces the §2.2 claim: a structured network
// over the census attributes has ~3 orders of magnitude fewer parameters
// than the explicit joint (the paper reports 951 vs ≈7·10⁹).
func TestParameterCompression(t *testing.T) {
	cards := []int{18, 9, 17, 7, 24, 5, 2, 10, 3, 3, 42, 4}
	vars := make([]Variable, len(cards))
	jointCells := 1.0
	for i, c := range cards {
		vars[i] = Variable{Name: "A" + string(rune('a'+i)), Card: c}
		jointCells *= float64(c)
	}
	net := New(vars)
	// A sparse structure: each variable depends on at most two predecessors.
	for v := 1; v < len(vars); v++ {
		parents := []int{v - 1}
		if v > 1 {
			parents = append(parents, v-2)
		}
		net.SetParents(v, parents)
		net.SetCPD(v, NewTableCPD(cards[v], net.ParentCards(v)))
	}
	net.SetCPD(0, NewTableCPD(cards[0], nil))
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	params := float64(net.NumParams())
	if jointCells < 1e9 {
		t.Fatalf("joint cells = %g, expected billions", jointCells)
	}
	if params > jointCells/1e3 {
		t.Errorf("BN params %g not dramatically below joint size %g", params, jointCells)
	}
}
