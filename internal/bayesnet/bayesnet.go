// Package bayesnet implements Bayesian networks over discrete variables:
// the DAG structure, table- and tree-structured conditional probability
// distributions (CPDs), storage-size accounting, exact inference by
// compiled variable elimination, and approximate inference by likelihood
// weighting.
//
// In the selectivity-estimation setting (Getoor, Taskar & Koller, SIGMOD
// 2001) a network approximates the joint frequency distribution over the
// value attributes of one table; the probability of a select query's event
// times the table size estimates the query's result size.
package bayesnet

import (
	"fmt"

	"prmsel/internal/factor"
)

// Variable is one node of the network.
type Variable struct {
	Name string
	Card int
}

// Network is a Bayesian network: variables, parent sets, and one CPD per
// variable. Construct with New and wire with SetParents/SetCPD, then call
// Validate (or use the learn package, which produces valid networks).
type Network struct {
	vars    []Variable
	parents [][]int
	cpds    []CPD
	// tables, when set, supplies each variable's expanded CPD (see
	// SetTables); nil expands the CPD on every use.
	tables func(v int) []float64
}

// New returns a network over the given variables with no edges and nil
// CPDs.
func New(vars []Variable) *Network {
	n := &Network{
		vars:    append([]Variable(nil), vars...),
		parents: make([][]int, len(vars)),
		cpds:    make([]CPD, len(vars)),
	}
	return n
}

// SetTables makes inference read variable v's CPD table from table(v)
// instead of expanding CPD(v) on each use. table(v) must hold the data
// of CPDFactor over v and its parents — or over any ids that sort the
// same way, so that many networks can share one table per CPD — and
// stay unchanged while the network is in use. Call it after the last
// SetParents/SetCPD.
func (n *Network) SetTables(table func(v int) []float64) { n.tables = table }

// NumVars returns the number of variables.
func (n *Network) NumVars() int { return len(n.vars) }

// Var returns variable metadata for id v.
func (n *Network) Var(v int) Variable { return n.vars[v] }

// Parents returns the parent ids of v (do not mutate).
func (n *Network) Parents(v int) []int { return n.parents[v] }

// SetParents replaces v's parent set.
func (n *Network) SetParents(v int, parents []int) {
	n.parents[v] = append([]int(nil), parents...)
}

// CPD returns v's conditional probability distribution.
func (n *Network) CPD(v int) CPD { return n.cpds[v] }

// SetCPD installs v's CPD.
func (n *Network) SetCPD(v int, c CPD) {
	n.cpds[v] = c
}

// ParentCards returns the cardinalities of v's parents, aligned with
// Parents(v).
func (n *Network) ParentCards(v int) []int {
	ps := n.parents[v]
	cards := make([]int, len(ps))
	for i, p := range ps {
		cards[i] = n.vars[p].Card
	}
	return cards
}

// TopoOrder returns a topological order of the variables, or an error if
// the parent structure is cyclic.
func (n *Network) TopoOrder() ([]int, error) {
	indeg := make([]int, len(n.vars))
	children := make([][]int, len(n.vars))
	for v, ps := range n.parents {
		indeg[v] = len(ps)
		for _, p := range ps {
			children[p] = append(children[p], v)
		}
	}
	var queue, out []int
	for v := range n.vars {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, c := range children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(n.vars) {
		return nil, fmt.Errorf("bayesnet: dependency structure is cyclic")
	}
	return out, nil
}

// Validate checks acyclicity and that every variable has a CPD of the right
// shape.
func (n *Network) Validate() error {
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	for v := range n.vars {
		if n.cpds[v] == nil {
			return fmt.Errorf("bayesnet: variable %s has no CPD", n.vars[v].Name)
		}
		if err := n.cpds[v].check(n.vars[v].Card, n.ParentCards(v)); err != nil {
			return fmt.Errorf("bayesnet: variable %s: %w", n.vars[v].Name, err)
		}
	}
	return nil
}

// NumParams returns the total number of free parameters across all CPDs.
func (n *Network) NumParams() int {
	total := 0
	for _, c := range n.cpds {
		if c != nil {
			total += c.NumParams()
		}
	}
	return total
}

// StorageBytes returns the model's storage cost under the accounting used
// throughout the evaluation (see SizeAccounting).
func (n *Network) StorageBytes() int {
	total := 0
	for v, c := range n.cpds {
		if c != nil {
			total += c.StorageBytes()
		}
		// Structure overhead: one byte per parent edge.
		total += len(n.parents[v])
	}
	return total
}

// Factor returns φ(v, Pa(v)) = P(v | Pa(v)) as a dense factor: the table
// inference reads, the shared one when SetTables supplied it. Callers
// must not modify it.
func (n *Network) Factor(v int) *factor.Factor {
	if n.tables == nil {
		return CPDFactor(n.cpds[v], v, n.parents[v], n.vars[v].Card, n.ParentCards(v))
	}
	f := factor.Scope(append([]int{v}, n.parents[v]...), append([]int{n.vars[v].Card}, n.ParentCards(v)...))
	f.Data = n.tables(v)
	size := 1
	for _, c := range f.Card {
		size *= c
	}
	if len(f.Data) != size {
		panic(fmt.Sprintf("bayesnet: table of %s has %d cells, want %d", n.vars[v].Name, len(f.Data), size))
	}
	return f
}

// JointFactor materializes the full joint distribution. Exponential in the
// number of variables; intended for tests and tiny models only.
func (n *Network) JointFactor() *factor.Factor {
	order, err := n.TopoOrder()
	if err != nil {
		panic(err)
	}
	joint := factor.Scalar(1)
	for _, v := range order {
		joint = factor.Product(joint, n.Factor(v))
	}
	return joint
}

// JointProb returns the probability of the full assignment (one value per
// variable, aligned with variable ids) via the chain rule — O(#vars).
func (n *Network) JointProb(assignment []int32) float64 {
	if len(assignment) != len(n.vars) {
		panic(fmt.Sprintf("bayesnet: assignment over %d values for %d vars", len(assignment), len(n.vars)))
	}
	p := 1.0
	for v := range n.vars {
		pvals := make([]int32, len(n.parents[v]))
		for i, q := range n.parents[v] {
			pvals[i] = assignment[q]
		}
		p *= n.cpds[v].Prob(assignment[v], pvals)
		if p == 0 {
			return 0
		}
	}
	return p
}
