package bayesnet

import (
	"math"
	"testing"
)

// binTree builds a tree CPD over two parents (cards 4 and 3) using both
// binary split kinds: root OpLE on parent 0, one branch OpEQ on parent 1.
func binTree() *TreeCPD {
	return &TreeCPD{
		ChildCard:   2,
		ParentCards: []int{4, 3},
		Root: &TreeNode{
			Split: 0, Op: OpLE, Arg: 1,
			Children: []*TreeNode{
				{Dist: []float64{0.9, 0.1}}, // parent0 <= 1
				{ // parent0 > 1: split on parent1 == 2
					Split: 1, Op: OpEQ, Arg: 2,
					Children: []*TreeNode{
						{Dist: []float64{0.2, 0.8}},
						{Dist: []float64{0.5, 0.5}},
					},
				},
			},
		},
	}
}

func TestBinarySplitRouting(t *testing.T) {
	tree := binTree()
	cases := []struct {
		p0, p1 int32
		want   float64 // P(child=0)
	}{
		{0, 0, 0.9}, {1, 2, 0.9}, // ≤ branch regardless of p1
		{2, 2, 0.2}, {3, 2, 0.2}, // > branch, p1 == 2
		{2, 0, 0.5}, {3, 1, 0.5}, // > branch, p1 != 2
	}
	for _, c := range cases {
		if got := tree.Prob(0, []int32{c.p0, c.p1}); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(0 | %d,%d) = %v, want %v", c.p0, c.p1, got, c.want)
		}
	}
}

func TestBinarySplitFactorAgreesWithProb(t *testing.T) {
	tree := binTree()
	f := CPDFactor(tree, 0, []int{1, 2}, 2, []int{4, 3})
	for p0 := int32(0); p0 < 4; p0++ {
		for p1 := int32(0); p1 < 3; p1++ {
			for x := int32(0); x < 2; x++ {
				want := tree.Prob(x, []int32{p0, p1})
				got := f.At([]int32{x, p0, p1})
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("factor(%d|%d,%d) = %v, want %v", x, p0, p1, got, want)
				}
			}
		}
	}
}

func TestBinarySplitStorageAccounting(t *testing.T) {
	tree := binTree()
	// 3 leaves × (2−1) params × 4B + 2 interior × 4B = 12 + 8 = 20.
	if got := tree.StorageBytes(); got != 20 {
		t.Errorf("StorageBytes = %d, want 20", got)
	}
	if got := tree.NumParams(); got != 3 {
		t.Errorf("NumParams = %d, want 3", got)
	}
}

func TestBinarySplitValidateChecks(t *testing.T) {
	net := New([]Variable{{Name: "P0", Card: 4}, {Name: "P1", Card: 3}, {Name: "X", Card: 2}})
	net.SetCPD(0, NewTableCPD(4, nil))
	net.SetCPD(1, NewTableCPD(3, nil))
	net.SetParents(2, []int{0, 1})
	net.SetCPD(2, binTree())
	if err := net.Validate(); err != nil {
		t.Fatalf("valid binary tree rejected: %v", err)
	}
	// Out-of-domain split operand.
	bad := binTree()
	bad.Root.Arg = 9
	net.SetCPD(2, bad)
	if err := net.Validate(); err == nil {
		t.Error("out-of-domain operand accepted")
	}
	// Wrong branch count for a binary split.
	bad2 := binTree()
	bad2.Root.Children = bad2.Root.Children[:1]
	net.SetCPD(2, bad2)
	if err := net.Validate(); err == nil {
		t.Error("one-branch binary split accepted")
	}
}

// TestCodecRoundTripsBinarySplits: a tree with OpLE and OpEQ splits keeps
// its split kinds and operands through the wire form, so every parent
// configuration routes to the same leaf after it.
func TestCodecRoundTripsBinarySplits(t *testing.T) {
	net := New([]Variable{{Name: "P0", Card: 4}, {Name: "P1", Card: 3}, {Name: "X", Card: 2}})
	net.SetCPD(0, NewTableCPD(4, nil))
	net.SetCPD(1, NewTableCPD(3, nil))
	net.SetParents(2, []int{0, 1})
	net.SetCPD(2, binTree())
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	tree := wireRoundTrip(t, net).CPD(2).(*TreeCPD)
	for p0 := int32(0); p0 < 4; p0++ {
		for p1 := int32(0); p1 < 3; p1++ {
			a := binTree().Prob(0, []int32{p0, p1})
			b := tree.Prob(0, []int32{p0, p1})
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("decoded tree differs at (%d,%d)", p0, p1)
			}
		}
	}
}

// TestMarginal reads marginals off Probability: the Income marginal must
// match Fig 1(c), and the (Education, HomeOwner) joint must match the full
// joint summed over Income.
func TestMarginal(t *testing.T) {
	net := fig1Net(t)
	want := []float64{0.47, 0.30, 0.23}
	for i, w := range want {
		p, err := net.Probability(Event{1: {int32(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-w) > 1e-12 {
			t.Errorf("P(I=%d) = %v, want %v", i, p, w)
		}
	}
	joint := net.JointFactor()
	for e := int32(0); e < 3; e++ {
		for h := int32(0); h < 2; h++ {
			var want float64
			for i := int32(0); i < 3; i++ {
				want += joint.At([]int32{e, i, h})
			}
			got, err := net.Probability(Event{0: {e}, 2: {h}})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("P(E=%d,H=%d) = %v, want %v", e, h, got, want)
			}
		}
	}
}

func TestProbabilityMixedFixAndRange(t *testing.T) {
	// One equality (Fix path) plus one multi-value (Restrict path) in the
	// same event.
	net := fig1Net(t)
	// P(E=h, I ∈ {m,h}) = .105+.045+.005+.045 = 0.2
	p, err := net.Probability(Event{0: {0}, 1: {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.2) > 1e-12 {
		t.Errorf("P = %v, want 0.2", p)
	}
}
