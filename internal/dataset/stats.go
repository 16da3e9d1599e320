package dataset

import (
	"fmt"

	"prmsel/internal/query"
)

// Contingency is a sparse joint count table over a list of targets: for each
// combination of value codes it records how many satisfying assignments of
// the skeleton query carry that combination. It backs both ground-truth
// evaluation of whole query suites and the sufficient statistics used by
// model construction.
type Contingency struct {
	Targets []query.Target
	Cards   []int
	strides []uint64
	counts  map[uint64]int64
	total   int64
}

// key packs vals into the mixed-radix key. vals align with Targets.
func (c *Contingency) key(vals []int32) uint64 {
	var k uint64
	for i, v := range vals {
		k += uint64(v) * c.strides[i]
	}
	return k
}

// Count returns the number of assignments whose targets equal vals.
func (c *Contingency) Count(vals []int32) int64 { return c.counts[c.key(vals)] }

// Total returns the number of satisfying assignments of the skeleton (the
// join size before any selection).
func (c *Contingency) Total() int64 { return c.total }

// Cells returns the number of non-zero cells.
func (c *Contingency) Cells() int { return len(c.counts) }

// CountIn returns the number of assignments whose target values fall in the
// given accept sets (nil set = unconstrained). Used for range/IN queries.
func (c *Contingency) CountIn(accept []map[int32]bool) int64 {
	var total int64
	vals := make([]int32, len(c.Targets))
	for k, n := range c.counts {
		ok := true
		for i := range vals {
			vals[i] = int32(k / c.strides[i] % uint64(c.Cards[i]))
			if accept[i] != nil && !accept[i][vals[i]] {
				ok = false
				break
			}
		}
		if ok {
			total += n
		}
	}
	return total
}

// JointCounts enumerates the satisfying assignments of skeleton (a query
// with joins but typically no predicates) and returns the joint counts over
// the target attributes. Skeletons whose tuple variables form more than one
// join-connected component are rejected: their assignment set is a cross
// product and should be composed from per-component contingencies instead.
func (db *Database) JointCounts(skeleton *query.Query, targets []query.Target) (*Contingency, error) {
	if err := checkConnected(skeleton); err != nil {
		return nil, err
	}
	ex, err := db.newExec(skeleton)
	if err != nil {
		return nil, err
	}
	c := &Contingency{
		Targets: append([]query.Target(nil), targets...),
		Cards:   make([]int, len(targets)),
		strides: make([]uint64, len(targets)),
		counts:  make(map[uint64]int64),
	}
	// Resolve each target to (exec var position, attribute index).
	varPos := make(map[string]int, len(ex.vars))
	for i, b := range ex.vars {
		varPos[b.name] = i
	}
	type loc struct{ pos, ai int }
	locs := make([]loc, len(targets))
	stride := uint64(1)
	for i, t := range targets {
		p, ok := varPos[t.Var]
		if !ok {
			return nil, fmt.Errorf("dataset: target references undeclared variable %q", t.Var)
		}
		ai := ex.vars[p].table.AttrIndex(t.Attr)
		if ai < 0 {
			return nil, fmt.Errorf("dataset: table %s has no attribute %q", ex.vars[p].table.Name, t.Attr)
		}
		locs[i] = loc{pos: p, ai: ai}
		card := ex.vars[p].table.Attributes[ai].Card()
		c.Cards[i] = card
		c.strides[i] = stride
		if stride > (1<<62)/uint64(card) {
			return nil, fmt.Errorf("dataset: joint domain over %d targets overflows the packing key", len(targets))
		}
		stride *= uint64(card)
	}
	rows := make([]int32, len(ex.vars))
	vals := make([]int32, len(targets))
	ex.enumerate(0, rows, func() {
		for i, l := range locs {
			vals[i] = ex.vars[l.pos].table.cols[l.ai][rows[l.pos]]
		}
		c.counts[c.key(vals)]++
		c.total++
	})
	return c, nil
}

// checkConnected rejects skeletons whose variables are not join-connected
// (unless there is a single variable).
func checkConnected(q *query.Query) error {
	if len(q.Vars) <= 1 {
		return nil
	}
	adj := make(map[string][]string)
	for _, j := range q.Joins {
		adj[j.FromVar] = append(adj[j.FromVar], j.ToVar)
		adj[j.ToVar] = append(adj[j.ToVar], j.FromVar)
	}
	for _, j := range q.NonKeyJoins {
		adj[j.LeftVar] = append(adj[j.LeftVar], j.RightVar)
		adj[j.RightVar] = append(adj[j.RightVar], j.LeftVar)
	}
	names := q.VarNames()
	seen := map[string]bool{names[0]: true}
	stack := []string{names[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	if len(seen) != len(names) {
		return fmt.Errorf("dataset: skeleton variables form %d+ join components; enumerate per component", 2)
	}
	return nil
}

// AttrCounts returns the marginal value counts of one attribute of one
// table — the 1-D histogram used by the AVI baseline and by parameter
// estimation for parentless nodes.
func (t *Table) AttrCounts(ai int) []int64 {
	counts := make([]int64, t.Attributes[ai].Card())
	for _, v := range t.cols[ai] {
		counts[v]++
	}
	return counts
}

// JoinPairCounts computes the sufficient statistics of a join indicator
// variable for the foreign key fk of table from: for every combination of
// the given fromAttrs (attribute indexes in from) and toAttrs (attribute
// indexes in the referenced table), the number of (t, s) pairs that actually
// join. The total pair count per combination is the product of the two
// marginal counts and is computed by the caller from AttrCounts/JointCounts;
// under referential integrity the joined count per from-row is exactly one.
func (db *Database) JoinPairCounts(from *Table, fkIdx int, fromAttrs, toAttrs []int) (map[uint64]int64, []int, error) {
	fk := from.ForeignKeys[fkIdx]
	to := db.Table(fk.To)
	if to == nil {
		return nil, nil, fmt.Errorf("dataset: foreign key %s.%s references unknown table %q", from.Name, fk.Name, fk.To)
	}
	cards := make([]int, 0, len(fromAttrs)+len(toAttrs))
	for _, ai := range fromAttrs {
		cards = append(cards, from.Attributes[ai].Card())
	}
	for _, ai := range toAttrs {
		cards = append(cards, to.Attributes[ai].Card())
	}
	strides := make([]uint64, len(cards))
	stride := uint64(1)
	for i, card := range cards {
		strides[i] = stride
		stride *= uint64(card)
	}
	counts := make(map[uint64]int64)
	refs := from.fks[fkIdx]
	for r := 0; r < from.Len(); r++ {
		var k uint64
		for i, ai := range fromAttrs {
			k += uint64(from.cols[ai][r]) * strides[i]
		}
		s := refs[r]
		for i, ai := range toAttrs {
			k += uint64(to.cols[ai][s]) * strides[len(fromAttrs)+i]
		}
		counts[k]++
	}
	return counts, cards, nil
}
