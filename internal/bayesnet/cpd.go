package bayesnet

import (
	"fmt"
	"math"

	"prmsel/internal/factor"
)

// SizeAccounting: model storage is measured in bytes, the way the paper's
// evaluation allocates space to each estimator. One free parameter costs
// ParamBytes; one interior split vertex of a tree CPD costs SplitBytes
// (split-variable id plus branch bookkeeping); every parent edge costs one
// byte of structure (charged by Network.StorageBytes).
const (
	// ParamBytes is the cost of one free CPD parameter.
	ParamBytes = 4
	// SplitBytes is the cost of one interior vertex of a tree CPD.
	SplitBytes = 4
)

// CPD is a conditional probability distribution P(X | Parents).
type CPD interface {
	// Prob returns P(X = childVal | Parents = parentVals); parentVals align
	// with the owning variable's parent list.
	Prob(childVal int32, parentVals []int32) float64
	// NumParams returns the number of free parameters.
	NumParams() int
	// StorageBytes returns the storage cost under SizeAccounting.
	StorageBytes() int
	// Kind returns "table" or "tree".
	Kind() string

	check(childCard int, parentCards []int) error
}

// TableCPD stores one distribution over the child per full parent
// configuration.
type TableCPD struct {
	ChildCard   int
	ParentCards []int
	// Dist is indexed childVal + ChildCard*config where config is the
	// mixed-radix encoding of the parent values (first parent fastest).
	Dist []float64
}

// NewTableCPD returns a table CPD with all distributions uniform.
func NewTableCPD(childCard int, parentCards []int) *TableCPD {
	configs := 1
	for _, c := range parentCards {
		configs *= c
	}
	t := &TableCPD{
		ChildCard:   childCard,
		ParentCards: append([]int(nil), parentCards...),
		Dist:        make([]float64, childCard*configs),
	}
	u := 1 / float64(childCard)
	for i := range t.Dist {
		t.Dist[i] = u
	}
	return t
}

// Clone returns a deep copy sharing nothing with t, so a refit can
// mutate the copy's distributions while readers keep the original.
func (t *TableCPD) Clone() *TableCPD {
	return &TableCPD{
		ChildCard:   t.ChildCard,
		ParentCards: append([]int(nil), t.ParentCards...),
		Dist:        append([]float64(nil), t.Dist...),
	}
}

// Config returns the mixed-radix index of parentVals.
func (t *TableCPD) Config(parentVals []int32) int {
	cfg, stride := 0, 1
	for i, v := range parentVals {
		cfg += int(v) * stride
		stride *= t.ParentCards[i]
	}
	return cfg
}

// SetDist installs the child distribution for one parent configuration.
func (t *TableCPD) SetDist(parentVals []int32, dist []float64) {
	if len(dist) != t.ChildCard {
		panic(fmt.Sprintf("bayesnet: SetDist got %d values for child card %d", len(dist), t.ChildCard))
	}
	base := t.Config(parentVals) * t.ChildCard
	copy(t.Dist[base:base+t.ChildCard], dist)
}

// Prob implements CPD.
func (t *TableCPD) Prob(childVal int32, parentVals []int32) float64 {
	return t.Dist[t.Config(parentVals)*t.ChildCard+int(childVal)]
}

// NumParams implements CPD.
func (t *TableCPD) NumParams() int {
	return len(t.Dist) / t.ChildCard * (t.ChildCard - 1)
}

// StorageBytes implements CPD.
func (t *TableCPD) StorageBytes() int { return t.NumParams() * ParamBytes }

// Kind implements CPD.
func (t *TableCPD) Kind() string { return "table" }

func (t *TableCPD) check(childCard int, parentCards []int) error {
	if t.ChildCard != childCard {
		return fmt.Errorf("table CPD child card %d, want %d", t.ChildCard, childCard)
	}
	if len(t.ParentCards) != len(parentCards) {
		return fmt.Errorf("table CPD over %d parents, want %d", len(t.ParentCards), len(parentCards))
	}
	for i, c := range parentCards {
		if t.ParentCards[i] != c {
			return fmt.Errorf("table CPD parent %d card %d, want %d", i, t.ParentCards[i], c)
		}
	}
	want := childCard
	for _, c := range parentCards {
		if want > len(t.Dist) {
			break // already too many; stop before the product can overflow
		}
		want *= c
	}
	if len(t.Dist) != want {
		return fmt.Errorf("table CPD has %d entries for child card %d and parent cards %v", len(t.Dist), childCard, parentCards)
	}
	return nil
}

// CloneCPD deep-copies any CPD the package defines. It exists for
// copy-on-write parameter maintenance: a refit clones every CPD, mutates
// the clones, and publishes them as a new immutable snapshot.
func CloneCPD(c CPD) CPD {
	switch c := c.(type) {
	case *TableCPD:
		return c.Clone()
	case *TreeCPD:
		return c.Clone()
	case nil:
		return nil
	default:
		panic(fmt.Sprintf("bayesnet: CloneCPD: unsupported CPD kind %q", c.Kind()))
	}
}

// CPDFactor expands c = P(child | parents) into a dense factor over the
// child id and the parent ids; childCard and parentCards give their
// cardinalities, parents in c's order. Every cell is one Prob call.
func CPDFactor(c CPD, childID int, parentIDs []int, childCard int, parentCards []int) *factor.Factor {
	vars := append([]int{childID}, parentIDs...)
	cards := append([]int{childCard}, parentCards...)
	f := factor.New(vars, cards)
	assignment := make([]int32, len(vars)) // child first, then parents
	aligned := make([]int32, len(vars))    // aligned with f.Vars
	pos := make([]int, len(vars))          // position of vars[i] in f.Vars
	for i, v := range vars {
		for j, fv := range f.Vars {
			if fv == v {
				pos[i] = j
			}
		}
	}
	for cell := range f.Data {
		// Decode cell in the child-first mixed radix.
		rem := cell
		for i := range vars {
			assignment[i] = int32(rem % cards[i])
			rem /= cards[i]
		}
		for i := range vars {
			aligned[pos[i]] = assignment[i]
		}
		f.Set(aligned, c.Prob(assignment[0], assignment[1:]))
	}
	return f
}

// SplitOp is the predicate kind of an interior tree-CPD vertex.
type SplitOp int

const (
	// OpValue is a k-way split: one child per value of the split parent.
	// The zero value, so hand-built trees default to it.
	OpValue SplitOp = iota
	// OpEQ is a binary split "parent == Arg": Children[0] is the equal
	// branch, Children[1] the rest.
	OpEQ
	// OpLE is a binary split "parent <= Arg" for ordinal parents:
	// Children[0] is the ≤ branch, Children[1] the rest.
	OpLE
)

// TreeNode is one vertex of a tree CPD: either a leaf carrying a child
// distribution, or an interior split on one parent.
type TreeNode struct {
	// Dist is non-nil exactly at leaves and has ChildCard entries.
	Dist []float64
	// Split is the index (into the parent list) of the parent this interior
	// vertex splits on.
	Split int
	// Op selects the predicate kind; Arg is its operand for OpEQ/OpLE.
	Op  SplitOp
	Arg int32
	// Children has one subtree per value of the split parent for OpValue,
	// and exactly two subtrees for OpEQ/OpLE.
	Children []*TreeNode
}

// child returns the subtree the parent value val routes to.
func (n *TreeNode) child(val int32) *TreeNode {
	switch n.Op {
	case OpEQ:
		if val == n.Arg {
			return n.Children[0]
		}
		return n.Children[1]
	case OpLE:
		if val <= n.Arg {
			return n.Children[0]
		}
		return n.Children[1]
	default:
		return n.Children[val]
	}
}

// IsLeaf reports whether n is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Dist != nil }

// TreeCPD is a CPD whose parent-configuration space is partitioned by a
// decision tree, so configurations that induce the same child distribution
// share parameters (paper §2.2, Fig 2b).
type TreeCPD struct {
	ChildCard   int
	ParentCards []int
	Root        *TreeNode
}

// NewTreeCPD returns a tree CPD consisting of a single uniform leaf.
func NewTreeCPD(childCard int, parentCards []int) *TreeCPD {
	dist := make([]float64, childCard)
	u := 1 / float64(childCard)
	for i := range dist {
		dist[i] = u
	}
	return &TreeCPD{
		ChildCard:   childCard,
		ParentCards: append([]int(nil), parentCards...),
		Root:        &TreeNode{Dist: dist},
	}
}

// Clone returns a deep copy of the whole tree — splits and leaf
// distributions — sharing nothing with t.
func (t *TreeCPD) Clone() *TreeCPD {
	var rec func(n *TreeNode) *TreeNode
	rec = func(n *TreeNode) *TreeNode {
		c := &TreeNode{Split: n.Split, Op: n.Op, Arg: n.Arg}
		if n.Dist != nil {
			c.Dist = append([]float64(nil), n.Dist...)
		}
		if n.Children != nil {
			c.Children = make([]*TreeNode, len(n.Children))
			for i, ch := range n.Children {
				c.Children[i] = rec(ch)
			}
		}
		return c
	}
	return &TreeCPD{
		ChildCard:   t.ChildCard,
		ParentCards: append([]int(nil), t.ParentCards...),
		Root:        rec(t.Root),
	}
}

// Leaf returns the leaf reached by parentVals.
func (t *TreeCPD) Leaf(parentVals []int32) *TreeNode {
	n := t.Root
	for !n.IsLeaf() {
		n = n.child(parentVals[n.Split])
	}
	return n
}

// Prob implements CPD.
func (t *TreeCPD) Prob(childVal int32, parentVals []int32) float64 {
	return t.Leaf(parentVals).Dist[childVal]
}

// Walk visits every node of the tree depth-first.
func (t *TreeCPD) Walk(fn func(*TreeNode)) {
	var rec func(*TreeNode)
	rec = func(n *TreeNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Leaves returns the number of leaves.
func (t *TreeCPD) Leaves() int {
	leaves := 0
	t.Walk(func(n *TreeNode) {
		if n.IsLeaf() {
			leaves++
		}
	})
	return leaves
}

// NumParams implements CPD.
func (t *TreeCPD) NumParams() int { return t.Leaves() * (t.ChildCard - 1) }

// StorageBytes implements CPD.
func (t *TreeCPD) StorageBytes() int {
	interior := 0
	t.Walk(func(n *TreeNode) {
		if !n.IsLeaf() {
			interior++
		}
	})
	return t.NumParams()*ParamBytes + interior*SplitBytes
}

// Kind implements CPD.
func (t *TreeCPD) Kind() string { return "tree" }

func (t *TreeCPD) check(childCard int, parentCards []int) error {
	if t.ChildCard != childCard {
		return fmt.Errorf("tree CPD child card %d, want %d", t.ChildCard, childCard)
	}
	if len(t.ParentCards) != len(parentCards) {
		return fmt.Errorf("tree CPD over %d parents, want %d", len(t.ParentCards), len(parentCards))
	}
	var err error
	t.Walk(func(n *TreeNode) {
		if err != nil {
			return
		}
		if n.IsLeaf() {
			if len(n.Dist) != childCard {
				err = fmt.Errorf("tree CPD leaf has %d entries, want %d", len(n.Dist), childCard)
			}
			return
		}
		if n.Split < 0 || n.Split >= len(parentCards) {
			err = fmt.Errorf("tree CPD splits on parent %d of %d", n.Split, len(parentCards))
			return
		}
		switch n.Op {
		case OpValue:
			if len(n.Children) != parentCards[n.Split] {
				err = fmt.Errorf("tree CPD split on parent %d has %d branches, want %d", n.Split, len(n.Children), parentCards[n.Split])
			}
		case OpEQ, OpLE:
			if len(n.Children) != 2 {
				err = fmt.Errorf("tree CPD binary split has %d branches", len(n.Children))
			}
			if n.Arg < 0 || int(n.Arg) >= parentCards[n.Split] {
				err = fmt.Errorf("tree CPD split operand %d out of domain [0,%d)", n.Arg, parentCards[n.Split])
			}
		default:
			err = fmt.Errorf("tree CPD has unknown split op %d", n.Op)
		}
	})
	return err
}

// maxCard bounds the cardinality CheckCPD accepts: domains in this system
// are value codes of small categorical attributes, so anything larger is a
// corrupt or adversarial model, and admitting it would let inference
// materialize factors of that size.
const maxCard = 1 << 20

// maxCells bounds a CPD's dense size: the child's cardinality times the
// product of its parents'. Inference expands every CPD it reaches into a
// table of that many float64s, and a tree CPD stores no table whose
// length would give a corrupt model away, so without this bound a few
// parents within maxCard could demand more memory than any host has.
// 1<<24 cells (128 MiB) is 14 times the largest served table,
// Census.Income at 1,156,680 cells.
const maxCells = 1 << 24

// distTolerance is the allowed |sum-1| of a stored distribution: loose
// enough for float accumulation across learning and encoding, tight enough
// to catch rows that were never normalized.
const distTolerance = 1e-6

// CheckCPD reports whether c can serve as the CPD of a variable with
// cardinality childCard whose parents have cardinalities parentCards:
// every cardinality in [1, 2^20] and at most 2^24 cells once expanded; a
// tree well formed and at most 64 levels deep; a shape that matches the
// variable and its parents; and every distribution finite, non-negative
// and summing to 1 within 1e-6.
// Decoders of model bytes run it on each variable, so a corrupt or
// adversarial model is rejected before inference could panic on it or
// return counts from rows that are not distributions.
func CheckCPD(c CPD, childCard int, parentCards []int) error {
	for _, card := range append([]int{childCard}, parentCards...) {
		if card < 1 || card > maxCard {
			return fmt.Errorf("cardinality %d outside [1, %d]", card, maxCard)
		}
	}
	cells := childCard
	for _, card := range parentCards {
		if cells > maxCells/card { // cells*card > maxCells, without overflow
			return fmt.Errorf("CPD expands to more than %d cells", maxCells)
		}
		cells *= card
	}
	switch c := c.(type) {
	case *TableCPD:
		if c == nil {
			return fmt.Errorf("nil table CPD")
		}
		if err := c.check(childCard, parentCards); err != nil {
			return err
		}
		for base := 0; base < len(c.Dist); base += c.ChildCard {
			if err := checkDist(c.Dist[base : base+c.ChildCard]); err != nil {
				return err
			}
		}
		return nil
	case *TreeCPD:
		if c == nil || c.Root == nil {
			return fmt.Errorf("tree CPD has no root")
		}
		if err := checkTreeWellFormed(c.Root, 0); err != nil {
			return err
		}
		if err := c.check(childCard, parentCards); err != nil {
			return err
		}
		var err error
		c.Walk(func(n *TreeNode) {
			if err == nil && n.IsLeaf() {
				err = checkDist(n.Dist)
			}
		})
		return err
	default: // the package defines no other CPD kind
		return fmt.Errorf("no CPD")
	}
}

// checkTreeWellFormed rejects tree shapes Walk and check would crash on:
// nil children and interior vertices with no branches. Depth is bounded
// so a pathologically deep tree cannot run the recursive walks away.
func checkTreeWellFormed(n *TreeNode, depth int) error {
	if depth > 64 {
		return fmt.Errorf("tree CPD deeper than 64 levels")
	}
	if n.Dist != nil {
		return nil
	}
	if len(n.Children) == 0 {
		return fmt.Errorf("tree CPD interior vertex has no children")
	}
	for _, c := range n.Children {
		if c == nil {
			return fmt.Errorf("tree CPD has a nil child")
		}
		if err := checkTreeWellFormed(c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// checkDist verifies one stored distribution is a probability
// distribution: inference quietly returns garbage, or non-finite
// estimates, on rows that are not.
func checkDist(dist []float64) error {
	var sum float64
	for _, p := range dist {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("distribution entry %v is not a probability", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > distTolerance {
		return fmt.Errorf("distribution sums to %v, want 1", sum)
	}
	return nil
}
