package learn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prmsel/internal/bayesnet"
	"prmsel/internal/datagen"
)

// ordinalCounts builds counts where the child flips at an ordinal
// threshold of parent 0 — the case OpLE splits should capture in one cut.
func ordinalCounts(rng *rand.Rand, n int) *Counts {
	c := NewCounts([]int{2, 10})
	vals := make([]int32, 2)
	for i := 0; i < n; i++ {
		vals[1] = int32(rng.Intn(10))
		if vals[1] <= 5 {
			vals[0] = 0
		} else {
			vals[0] = 1
		}
		if rng.Float64() < 0.05 { // noise
			vals[0] = 1 - vals[0]
		}
		c.Add(vals, 1)
	}
	return c
}

func TestGrowTreeUsesThresholdSplit(t *testing.T) {
	c := ordinalCounts(rand.New(rand.NewSource(3)), 5000)
	fr := GrowTree(c, TreeOptions{})
	tree := fr.CPD.(*bayesnet.TreeCPD)
	if tree.Root.IsLeaf() {
		t.Fatal("no split found")
	}
	if tree.Root.Op != bayesnet.OpLE || tree.Root.Arg != 5 {
		t.Errorf("root split op=%v arg=%d, want OpLE at 5", tree.Root.Op, tree.Root.Arg)
	}
	// A single threshold split should capture nearly all the signal: the
	// tree should stay very small.
	if tree.Leaves() > 4 {
		t.Errorf("tree grew %d leaves for a single-threshold signal", tree.Leaves())
	}
}

// TestGrowTreeCapMonotone is the property the search's fit cache relies
// on: growth under cap C1 that ends within C2 ≤ C1 bytes is identical to
// growth under C2.
func TestGrowTreeCapMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounts([]int{3, 5, 4})
		vals := make([]int32, 3)
		for i := 0; i < 400; i++ {
			vals[1] = int32(rng.Intn(5))
			vals[2] = int32(rng.Intn(4))
			vals[0] = (vals[1] + vals[2]) % 3
			if rng.Float64() < 0.2 {
				vals[0] = int32(rng.Intn(3))
			}
			c.Add(vals, 1)
		}
		big := GrowTree(c, TreeOptions{MaxBytes: 4096, PenaltyPerParam: 0.01})
		// Refit at exactly the bytes the big fit used: must be identical.
		small := GrowTree(c, TreeOptions{MaxBytes: big.Bytes, PenaltyPerParam: 0.01})
		if small.Bytes != big.Bytes {
			return false
		}
		return math.Abs(small.LogLik-big.LogLik) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowTreeMaxLeavesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewCounts([]int{4, 8, 8})
	vals := make([]int32, 3)
	for i := 0; i < 20000; i++ {
		vals[1] = int32(rng.Intn(8))
		vals[2] = int32(rng.Intn(8))
		vals[0] = (vals[1]*3 + vals[2]) % 4
		c.Add(vals, 1)
	}
	fr := GrowTree(c, TreeOptions{MaxLeaves: 8, PenaltyPerParam: 0.0001})
	if got := fr.CPD.(*bayesnet.TreeCPD).Leaves(); got > 8 {
		t.Errorf("tree has %d leaves, cap was 8", got)
	}
}

func TestGrowTreeNegativePenaltyMeansNoPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := NewCounts([]int{2, 6})
	vals := make([]int32, 2)
	for i := 0; i < 3000; i++ {
		vals[1] = int32(rng.Intn(6))
		vals[0] = int32(rng.Intn(2))
		c.Add(vals, 1)
	}
	penalized := GrowTree(c, TreeOptions{PenaltyPerParam: 5})
	free := GrowTree(c, TreeOptions{PenaltyPerParam: -1})
	if free.LogLik < penalized.LogLik {
		t.Errorf("unpenalized growth (%v) below penalized (%v)", free.LogLik, penalized.LogLik)
	}
	pl := penalized.CPD.(*bayesnet.TreeCPD).Leaves()
	fl := free.CPD.(*bayesnet.TreeCPD).Leaves()
	if fl < pl {
		t.Errorf("no-penalty tree smaller (%d leaves) than heavily penalized (%d)", fl, pl)
	}
}

// TestFitTableVsTreeLikelihoodOrder: with unlimited space, a full table
// CPD's likelihood upper-bounds any tree over the same counts.
func TestFitTableVsTreeLikelihoodOrder(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounts([]int{3, 4, 3})
		vals := make([]int32, 3)
		for i := 0; i < 200; i++ {
			vals[0] = int32(rng.Intn(3))
			vals[1] = int32(rng.Intn(4))
			vals[2] = int32(rng.Intn(3))
			c.Add(vals, 1)
		}
		table := FitTable(c)
		tree := GrowTree(c, TreeOptions{PenaltyPerParam: -1, MaxLeaves: 4096})
		return table.LogLik >= tree.LogLik-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchRemovalMove: seed the oracle with a forced bad structure via a
// chain of adds, then check search never ends with a worse likelihood than
// the empty structure (removal moves and best-snapshot tracking guard it).
func TestSearchResultNeverBelowEmptyModel(t *testing.T) {
	db := fig1Table(t)
	o := NewTableOracle(db, FitConfig{Kind: Tree})
	empty := 0.0
	for v := range o.Vars() {
		_, fr, err := o.Fit(v, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		empty += fr.LogLik
	}
	res, err := Search(o, Options{Criterion: SSN, BudgetBytes: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLik < empty-1e-9 {
		t.Errorf("search result %v below empty model %v", res.LogLik, empty)
	}
}

func TestSearchRandomEscapesDeterministic(t *testing.T) {
	db := fig1Table(t)
	run := func() *Result {
		o := NewTableOracle(db, FitConfig{Kind: Tree})
		res, err := Search(o, Options{Criterion: SSN, RandomSteps: 3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.LogLik != b.LogLik || a.Bytes != b.Bytes {
		t.Errorf("same seed produced different searches: (%v,%d) vs (%v,%d)", a.LogLik, a.Bytes, b.LogLik, b.Bytes)
	}
}

func TestTopKByMI(t *testing.T) {
	mi := map[int]float64{1: 0.5, 2: 0.1, 3: 0.9, 4: 0.3}
	got := TopKByMI([]int{1, 2, 3, 4}, func(p int) float64 { return mi[p] }, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TopKByMI = %v, want [1 3]", got)
	}
	// k <= 0 or k >= len keeps everything.
	all := []int{1, 2, 3}
	if got := TopKByMI(all, func(int) float64 { return 0 }, 0); len(got) != 3 {
		t.Errorf("k=0 pruned: %v", got)
	}
	if got := TopKByMI(all, func(int) float64 { return 0 }, 5); len(got) != 3 {
		t.Errorf("k>len pruned: %v", got)
	}
}

// TestPruningKeepsInformativeParents: with the census generator's strong
// Education->Income dependence, pruning Income's candidates to 3 must keep
// Education, and the pruned search must stay close to the full search.
func TestPruningKeepsInformativeParents(t *testing.T) {
	db := datagen.Census(8000, 5)
	tbl := db.Table("Census")
	o := NewTableOracle(tbl, FitConfig{Kind: Tree, TopKCandidates: 3})
	income := tbl.AttrIndex("Income")
	edu := tbl.AttrIndex("Education")
	kept := o.CandidateParents(income)
	found := false
	for _, p := range kept {
		if p == edu {
			found = true
		}
	}
	if !found {
		t.Errorf("pruning dropped Education from Income's candidates: %v", kept)
	}
	if len(kept) != 3 {
		t.Errorf("kept %d candidates, want 3", len(kept))
	}

	full, err := Search(NewTableOracle(tbl, FitConfig{Kind: Tree}), Options{Criterion: SSN, BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Search(o, Options{Criterion: SSN, BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// The pruned model may lose a little likelihood but not collapse.
	if pruned.LogLik < full.LogLik+0.1*math.Abs(full.LogLik) {
		// loglik is negative: pruned must be >= full - 10%|full|.
		if pruned.LogLik < full.LogLik-0.1*math.Abs(full.LogLik) {
			t.Errorf("pruned search collapsed: %v vs full %v", pruned.LogLik, full.LogLik)
		}
	}
}

// TestParallelSearchMatchesSerial: Workers only warm the fit cache, so the
// learned structure must be identical to the serial search's.
func TestParallelSearchMatchesSerial(t *testing.T) {
	db := datagen.Census(6000, 13)
	tbl := db.Table("Census")
	serial, err := Search(NewTableOracle(tbl, FitConfig{Kind: Tree}), Options{Criterion: SSN, BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Search(NewTableOracle(tbl, FitConfig{Kind: Tree}), Options{Criterion: SSN, BudgetBytes: 3000, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.LogLik != parallel.LogLik || serial.Bytes != parallel.Bytes {
		t.Fatalf("parallel (%v,%d) differs from serial (%v,%d)",
			parallel.LogLik, parallel.Bytes, serial.LogLik, serial.Bytes)
	}
	for v := range serial.Parents {
		if len(serial.Parents[v]) != len(parallel.Parents[v]) {
			t.Fatalf("var %d parent sets differ", v)
		}
		for i := range serial.Parents[v] {
			if serial.Parents[v][i] != parallel.Parents[v][i] {
				t.Fatalf("var %d parent %d differs", v, i)
			}
		}
	}
}

// treeDepth is the depth of the deepest leaf (the root is at depth 0).
func treeDepth(n *bayesnet.TreeNode) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, 1+treeDepth(c))
	}
	return d
}

// TestGrowTreeDecodes: a learned tree must pass the decoder's checks, or
// a model that serves cannot be recovered from the store or loaded. One
// 200-value parent whose values alternate the child's distribution by
// parity grows a chain of equality splits, one per value, past the
// decoder's depth bound unless growth stops there.
func TestGrowTreeDecodes(t *testing.T) {
	const card = 200
	c := NewCounts([]int{2, card})
	for v := int32(0); v < card; v++ {
		p1 := 0.05
		if v%2 == 1 {
			p1 = 0.95
		}
		c.Add([]int32{1, v}, 1000*p1)
		c.Add([]int32{0, v}, 1000*(1-p1))
	}
	for _, opts := range []TreeOptions{{}, {MaxBytes: 4400}} {
		fr := GrowTree(c, opts)
		tree := fr.CPD.(*bayesnet.TreeCPD)
		if d := treeDepth(tree.Root); d > bayesnet.MaxTreeDepth {
			t.Errorf("opts %+v: tree %d levels deep, bound %d", opts, d, bayesnet.MaxTreeDepth)
		}
		if err := bayesnet.CheckCPD(fr.CPD, 2, []int{card}); err != nil {
			t.Errorf("opts %+v: learned tree (%d bytes, %d levels) fails CheckCPD: %v",
				opts, fr.Bytes, treeDepth(tree.Root), err)
		}
	}
}
