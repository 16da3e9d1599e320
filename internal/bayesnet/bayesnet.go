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
	"sync"

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
	// factors lazily memoizes cpdFactor: materializing a tree CPD walks
	// every configuration, which would dominate repeated inference.
	// SetParents/SetCPD invalidate the affected entry; mu makes the
	// memoization safe under concurrent inference.
	factors []*factor.Factor
	mu      sync.Mutex
	// plans caches compiled query plans by shape (see plan.go); it is
	// dropped whenever structure or parameters change, since plans capture
	// resolved CPD factors.
	plans *planCache
}

// New returns a network over the given variables with no edges and nil
// CPDs.
func New(vars []Variable) *Network {
	n := &Network{
		vars:    append([]Variable(nil), vars...),
		parents: make([][]int, len(vars)),
		cpds:    make([]CPD, len(vars)),
		factors: make([]*factor.Factor, len(vars)),
		plans:   newPlanCache(defaultPlanCacheCap),
	}
	return n
}

// NumVars returns the number of variables.
func (n *Network) NumVars() int { return len(n.vars) }

// Var returns variable metadata for id v.
func (n *Network) Var(v int) Variable { return n.vars[v] }

// Parents returns the parent ids of v (do not mutate).
func (n *Network) Parents(v int) []int { return n.parents[v] }

// SetParents replaces v's parent set.
func (n *Network) SetParents(v int, parents []int) {
	n.parents[v] = append([]int(nil), parents...)
	n.mu.Lock()
	n.factors[v] = nil
	n.mu.Unlock()
	n.plans.invalidate()
}

// CPD returns v's conditional probability distribution.
func (n *Network) CPD(v int) CPD { return n.cpds[v] }

// SetCPD installs v's CPD.
func (n *Network) SetCPD(v int, c CPD) {
	n.cpds[v] = c
	n.mu.Lock()
	n.factors[v] = nil
	n.mu.Unlock()
	n.plans.invalidate()
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

// cpdFactor returns φ(v, Pa(v)) = P(v | Pa(v)) as a dense factor, memoized
// per variable and safe for concurrent inference. Callers must not mutate
// the result (inference operations all copy).
func (n *Network) cpdFactor(v int) *factor.Factor {
	n.mu.Lock()
	f := n.factors[v]
	if f == nil {
		f = n.cpds[v].Factor(v, n.parents[v], n.vars[v].Card, n.ParentCards(v))
		n.factors[v] = f
	}
	n.mu.Unlock()
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
		joint = factor.Product(joint, n.cpdFactor(v))
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
