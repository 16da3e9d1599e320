package bayesnet

import "slices"

// Serving a tree CPD over classes: two values of a parent fall in one
// class when every split of the tree on that parent routes them the same
// way, so every tuple of values from one tuple of classes reaches the
// same leaf. A table over (child, classes) therefore answers exactly what
// the dense table over (child, parents) answers, in as many cells as the
// splits tell apart rather than as many as the domains hold. Each parent
// reaches such a table through a 0/1 map from its values to its classes.

// coarsenRatio is the selection rule's R: a tree CPD is served over
// classes only when its dense table holds at least R times the cells of
// the coarsened table plus its maps. The maps' extra nodes and products
// cost plan steps, so a modest saving loses: coarsening every TB tree
// CPD (ratios up to 6.5) made select-keyjoin queries 3–4 times slower,
// fin's Transaction.Type (16.6) and shop's LineItem.Discount (10.6)
// made their join queries 10–30% slower, census Sex (33) was about
// even, and the census CPDs with ratios 184–778 make census misses
// about 9 times faster (DESIGN §11).
const coarsenRatio = 32

// cellCap saturates cell counts: every count past maxCells is refused
// anyway, and a cap well above R·maxCells keeps the rule's comparison
// right without overflowing on huge domains.
const cellCap = 1 << 50

// Coarsening is how serving reads one tree CPD: over the classes its
// splits induce on each parent (Coarsen). It keeps the splits, not the
// value-to-class arrays, so a decoded model costs memory in proportion
// to its bytes until a query reaches a class map.
type Coarsening struct {
	// Cards[i] is parent i's number of classes: its cardinality when
	// every value is a class of its own (the parent is served as is), and
	// 0 when no split reads it and serving drops it.
	Cards []int
	// cuts[i] are the splits on parent i, cards[i] its cardinality.
	cuts  []cuts
	cards []int
}

// Mapped reports whether parent i reaches the CPD through its classes:
// it has more than one class and fewer than its values.
func (co *Coarsening) Mapped(i int) bool {
	return co.Cards[i] > 0 && co.Cards[i] < co.cards[i]
}

// class returns the class of each value of parent i, classes numbered by
// their smallest value. Parent i must be mapped.
func (co *Coarsening) class(i int) []int32 {
	class, _ := co.cuts[i].classes(co.cards[i])
	return class
}

// cuts collects the splits a tree makes on one parent.
type cuts struct {
	value  bool    // an OpValue split tells every value apart
	eq, le []int32 // OpEQ and OpLE operands
}

// treeCuts returns the splits t makes on each of its n parents.
func treeCuts(t *TreeCPD, n int) []cuts {
	cs := make([]cuts, n)
	t.Walk(func(nd *TreeNode) {
		if nd.IsLeaf() {
			return
		}
		c := &cs[nd.Split]
		switch nd.Op {
		case OpEQ:
			c.eq = append(c.eq, nd.Arg)
		case OpLE:
			c.le = append(c.le, nd.Arg)
		default:
			c.value = true
		}
	})
	for i := range cs {
		slices.Sort(cs[i].eq)
		cs[i].eq = slices.Compact(cs[i].eq)
		slices.Sort(cs[i].le)
		cs[i].le = slices.Compact(cs[i].le)
	}
	return cs
}

// count returns how many classes c induces on a domain of card values,
// without visiting the values, so that checking a decoded model costs
// time in proportion to its splits: each OpEQ operand is a class of its
// own, and the OpLE operands cut the other values into intervals, each
// a class when any value is left in it.
func (c *cuts) count(card int) int {
	if c.value {
		return card
	}
	n := len(c.eq)
	lo, e := 0, 0
	for j := 0; j <= len(c.le) && lo < card; j++ {
		hi := card - 1
		if j < len(c.le) {
			hi = min(hi, int(c.le[j]))
		}
		size := hi - lo + 1
		for e < len(c.eq) && int(c.eq[e]) <= hi {
			size--
			e++
		}
		if size > 0 {
			n++
		}
		lo = hi + 1
	}
	return n
}

// classes returns the class of each of card values under c, which holds
// no OpValue split, classes numbered by their smallest value, and each
// class's smallest value.
func (c *cuts) classes(card int) (class, rep []int32) {
	class = make([]int32, card)
	interval := int32(-1) // class of the current OpLE interval, once seen
	j, e := 0, 0
	for v := int32(0); int(v) < card; v++ {
		if j < len(c.le) && v > c.le[j] {
			j++
			interval = -1
		}
		if e < len(c.eq) && c.eq[e] == v {
			e++
			class[v] = int32(len(rep))
			rep = append(rep, v)
			continue
		}
		if interval < 0 {
			interval = int32(len(rep))
			rep = append(rep, v)
		}
		class[v] = interval
	}
	return class, rep
}

// satMul returns a·b, saturated at cellCap.
func satMul(a, b int) int {
	if a > cellCap/b {
		return cellCap
	}
	return a * b
}

// coarsen applies the selection rule to c, a CPD of a variable with
// cardinality childCard whose parents have cardinalities parentCards: it
// returns how serving reads c over classes, or nil when it reads c as
// is, and the cells serving then holds for c — the coarsened table plus
// its class maps, or the dense table — saturated far above any bound a
// caller checks. It is the one place the rule lives: Coarsen and
// CheckCPD both call it, so the decoder's bound counts exactly the cells
// serving builds.
func coarsen(c CPD, childCard int, parentCards []int) (*Coarsening, int) {
	dense := childCard
	for _, card := range parentCards {
		dense = satMul(dense, card)
	}
	t, ok := c.(*TreeCPD)
	if !ok {
		return nil, dense
	}
	cs := treeCuts(t, len(parentCards))
	co := &Coarsening{Cards: make([]int, len(parentCards)), cuts: cs, cards: append([]int(nil), parentCards...)}
	table, maps := childCard, 0
	for i, card := range parentCards {
		switch k := cs[i].count(card); {
		case k == card:
			co.Cards[i] = card
			table = satMul(table, card)
		case k == 1:
		default:
			co.Cards[i] = k
			table = satMul(table, k)
			maps = min(maps+satMul(card, k), cellCap)
		}
	}
	served := min(table+maps, cellCap)
	if dense < coarsenRatio*served {
		return nil, dense
	}
	return co, served
}

// Coarsen returns how serving reads c over the classes its splits induce
// on each parent, or nil when serving reads c as is: when c is no tree,
// or its dense table holds fewer than coarsenRatio times the cells of the
// coarsened table plus its maps. For each parent, k classes with k equal
// to its cardinality keep it as is, k = 1 drops it (c does not depend on
// it), and any other k maps it to its classes. c must pass CheckCPD.
func Coarsen(c CPD, childCard int, parentCards []int) *Coarsening {
	co, _ := coarsen(c, childCard, parentCards)
	return co
}

// Table returns t, the tree CPD co was computed for, served over the
// classes: a table CPD whose parents are t's served parents in order —
// the class variable of a mapped parent, a kept parent itself, a dropped
// parent not at all — and whose distribution for each tuple of classes is
// the leaf that tuple routes to.
func (co *Coarsening) Table(t *TreeCPD) *TableCPD {
	var cards []int
	rep := make([][]int32, len(co.Cards)) // smallest value of each class
	for i, k := range co.Cards {
		if k > 0 {
			cards = append(cards, k)
		}
		if co.Mapped(i) {
			_, rep[i] = co.cuts[i].classes(co.cards[i])
		}
	}
	out := NewTableCPD(t.ChildCard, cards)
	vals := make([]int32, len(co.Cards)) // a dropped parent stays at value 0
	served := make([]int32, len(cards))
	for cfg := 0; cfg*t.ChildCard < len(out.Dist); cfg++ {
		rem, j := cfg, 0
		for i, k := range co.Cards {
			if k == 0 {
				continue
			}
			served[j] = int32(rem % k)
			rem /= k
			vals[i] = served[j]
			if rep[i] != nil {
				vals[i] = rep[i][served[j]]
			}
			j++
		}
		out.SetDist(served, t.Leaf(vals).Dist)
	}
	return out
}

// Map returns parent i's class map as the CPD of its class variable:
// P(class | parent value) is 1 at the value's class and 0 elsewhere.
// Parent i must be mapped.
func (co *Coarsening) Map(i int) *TableCPD {
	k, class := co.Cards[i], co.class(i)
	m := &TableCPD{ChildCard: k, ParentCards: []int{len(class)}, Dist: make([]float64, k*len(class))}
	for v, c := range class {
		m.Dist[v*k+int(c)] = 1
	}
	return m
}
