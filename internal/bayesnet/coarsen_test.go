package bayesnet

import (
	"math/rand"
	"runtime"
	"testing"
)

// randomSplitTree grows a random tree CPD over parents with the given
// cardinalities: parent 0 takes OpValue splits as well as binary ones,
// parent 1 is favoured so it is split several times, and the last parent
// is never read.
func randomSplitTree(rng *rand.Rand, childCard int, cards []int) *TreeCPD {
	t := NewTreeCPD(childCard, cards)
	leaf := func() *TreeNode {
		d := make([]float64, childCard)
		var sum float64
		for i := range d {
			d[i] = rng.Float64() + 0.01
			sum += d[i]
		}
		for i := range d {
			d[i] /= sum
		}
		return &TreeNode{Dist: d}
	}
	var grow func(depth int) *TreeNode
	grow = func(depth int) *TreeNode {
		if depth == 4 || (depth > 0 && rng.Intn(4) == 0) {
			return leaf()
		}
		p := 1
		if r := rng.Intn(4); r < len(cards)-1 && r != 1 {
			p = r
		}
		n := &TreeNode{Split: p, Arg: int32(rng.Intn(cards[p]))}
		switch r := rng.Intn(3); {
		case p == 0 && r == 0:
			n.Op = OpValue
			n.Arg = 0
			for v := 0; v < cards[0]; v++ {
				n.Children = append(n.Children, grow(depth+1))
			}
			return n
		case r == 1:
			n.Op = OpEQ
		default:
			n.Op = OpLE
		}
		n.Children = []*TreeNode{grow(depth + 1), grow(depth + 1)}
		return n
	}
	t.Root = grow(0)
	return t
}

// TestCoarsenedTableMatchesDense: for random trees mixing OpValue, OpEQ
// and OpLE splits, one parent split several times and one never read,
// the coarsened table looked up by class equals CPDFactor's dense cell
// exactly for every full assignment; two values share a class exactly
// when every split on their parent routes them the same way; each map is
// 0/1 with one 1 per value; and the rule counts the table and maps.
func TestCoarsenedTableMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		childCard := 2 + rng.Intn(3)
		cards := []int{3, 20 + rng.Intn(20), 10 + rng.Intn(20), 30 + rng.Intn(10)}
		tree := randomSplitTree(rng, childCard, cards)
		if err := CheckCPD(tree, childCard, cards); err != nil {
			t.Fatal(err)
		}
		co := Coarsen(tree, childCard, cards)
		if co == nil {
			t.Fatalf("trial %d: the rule did not pick a tree over parents %v", trial, cards)
		}
		if co.Cards[3] != 0 {
			t.Fatalf("trial %d: unread parent served with %d classes", trial, co.Cards[3])
		}

		// Classes against the definition: the route each split takes.
		for i, card := range cards {
			sig := make([][]int, card)
			tree.Walk(func(n *TreeNode) {
				if n.IsLeaf() || n.Split != i {
					return
				}
				for v := range sig {
					route := v // OpValue routes every value its own way
					if n.Op != OpValue {
						route = 0
						if n.child(int32(v)) == n.Children[1] {
							route = 1
						}
					}
					sig[v] = append(sig[v], route)
				}
			})
			var classOf []int32
			if co.Mapped(i) {
				classOf = co.class(i)
			}
			class := func(v int) int {
				switch {
				case co.Cards[i] == 0:
					return 0
				case classOf == nil:
					return v
				}
				return int(classOf[v])
			}
			for a := 0; a < card; a++ {
				for b := 0; b < card; b++ {
					same := len(sig[a]) == len(sig[b])
					for s := 0; same && s < len(sig[a]); s++ {
						same = sig[a][s] == sig[b][s]
					}
					if same != (class(a) == class(b)) {
						t.Fatalf("trial %d parent %d: values %d, %d route alike %v but classes %d, %d", trial, i, a, b, same, class(a), class(b))
					}
				}
			}
		}

		table := co.Table(tree)
		cells := len(table.Dist)
		classes := make([][]int32, len(cards))
		for i := range cards {
			if !co.Mapped(i) {
				continue
			}
			classes[i] = co.class(i)
			m := co.Map(i)
			cells += len(m.Dist)
			for v := 0; v < cards[i]; v++ {
				for c := 0; c < co.Cards[i]; c++ {
					want := 0.0
					if int(classes[i][v]) == c {
						want = 1
					}
					if got := m.Prob(int32(c), []int32{int32(v)}); got != want {
						t.Fatalf("trial %d: map %d at (%d | %d) = %v, want %v", trial, i, c, v, got, want)
					}
				}
			}
		}
		if _, got := coarsen(tree, childCard, cards); got != cells {
			t.Fatalf("trial %d: the rule counts %d cells, served table and maps hold %d", trial, got, cells)
		}

		dense := CPDFactor(tree, 0, []int{1, 2, 3, 4}, childCard, cards)
		vals := make([]int32, 5)
		served := make([]int32, 0, len(cards))
		for cell := range dense.Data {
			rem := cell
			for i, c := range dense.Card {
				vals[i] = int32(rem % c)
				rem /= c
			}
			served = served[:0]
			for i, k := range co.Cards {
				switch {
				case k == 0:
				case classes[i] == nil:
					served = append(served, vals[1+i])
				default:
					served = append(served, classes[i][vals[1+i]])
				}
			}
			if got := table.Prob(vals[0], served); got != dense.Data[cell] {
				t.Fatalf("trial %d: assignment %v reads %v coarsened, %v dense", trial, vals, got, dense.Data[cell])
			}
		}
	}
}

// TestCoarsenRule: tables and small trees are served dense, and so is a
// tree whose dense table is under coarsenRatio times its coarsened table
// plus maps; the rule then counts the dense table.
func TestCoarsenRule(t *testing.T) {
	table := NewTableCPD(2, []int{50, 50})
	if co, cells := coarsen(table, 2, []int{50, 50}); co != nil || cells != 5000 {
		t.Fatal("a table CPD must be served dense")
	}
	// One OpLE cut on a 4-value parent: 8 dense cells against 4 coarsened
	// plus 8 of map.
	tree := NewTreeCPD(2, []int{4})
	tree.Root = &TreeNode{Op: OpLE, Arg: 1, Children: []*TreeNode{
		{Dist: []float64{0.5, 0.5}}, {Dist: []float64{0.25, 0.75}},
	}}
	if co, cells := coarsen(tree, 2, []int{4}); co != nil || cells != 8 {
		t.Fatal("a small tree must be served dense")
	}
	// The same cut on a 400-value parent: 800 dense against 4 + 800.
	tree.ParentCards = []int{400}
	if Coarsen(tree, 2, []int{400}) != nil {
		t.Fatal("a tree whose map outweighs its table must be served dense")
	}
	// At the crossover: a one-leaf tree over one parent of R values
	// serves R times fewer cells by dropping it, over R−1 values it stays
	// dense.
	for _, card := range []int{coarsenRatio - 1, coarsenRatio} {
		one := NewTreeCPD(2, []int{card})
		if picked := Coarsen(one, 2, []int{card}) != nil; picked != (card == coarsenRatio) {
			t.Fatalf("a one-leaf tree over %d values picked %v with R = %d", card, picked, coarsenRatio)
		}
	}
	// A one-leaf tree over two wide parents drops both: 2 cells.
	wide := NewTreeCPD(2, []int{1 << 20, 1 << 20})
	if co := Coarsen(wide, 2, []int{1 << 20, 1 << 20}); co == nil || co.Cards[0] != 0 || co.Cards[1] != 0 {
		t.Fatal("a one-leaf tree must drop its parents")
	}
	if _, got := coarsen(wide, 2, []int{1 << 20, 1 << 20}); got != 2 {
		t.Fatalf("the rule counts %d cells, want 2", got)
	}
	// The rule reads the splits, not the values: checking a tree cut on a
	// 2^20-value parent, as the decoder does for every variable, allocates
	// nothing in proportion to the domain.
	cut := NewTreeCPD(16, []int{1 << 20})
	cut.Root = &TreeNode{Op: OpLE, Arg: 1000, Children: []*TreeNode{NewTreeCPD(16, nil).Root, NewTreeCPD(16, nil).Root}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, cells := coarsen(cut, 16, []int{1 << 20})
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
		t.Fatalf("counting cells over a 2^20-value parent allocated %d bytes", d)
	}
	if cells != 16<<20 {
		t.Fatalf("the rule counts %d cells, want the dense 16·2^20", cells)
	}
}
