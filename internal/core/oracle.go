package core

import (
	"fmt"
	"slices"

	"prmsel/internal/bayesnet"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
)

// Config configures PRM construction.
type Config struct {
	// Fit selects the CPD representation (tree by default) and tree growth
	// tuning.
	Fit learn.FitConfig
	// Search configures the hill-climbing structure search.
	Search learn.Options
	// UniformJoin learns the BN+UJ baseline instead of a full PRM: no
	// cross-table attribute parents and no parents for join indicators, so
	// each table gets an independent BN and every join is assumed uniform.
	UniformJoin bool
}

// prmOracle implements learn.Oracle over the variables of a database's PRM.
type prmOracle struct {
	db        *dataset.Database
	cfg       Config
	vars      []Var
	index     map[string]int
	specs     []learn.VarSpec
	candCache map[int][]int
}

var _ learn.Oracle = (*prmOracle)(nil)

func newPRMOracle(db *dataset.Database, cfg Config, vars []Var, index map[string]int) *prmOracle {
	o := &prmOracle{db: db, cfg: cfg, vars: vars, index: index, candCache: make(map[int][]int)}
	o.specs = make([]learn.VarSpec, len(vars))
	for i, v := range vars {
		o.specs[i] = learn.VarSpec{Name: v.Name(), Card: v.Card}
	}
	return o
}

// Vars implements learn.Oracle.
func (o *prmOracle) Vars() []learn.VarSpec { return o.specs }

// CandidateParents implements learn.Oracle. Attributes may take other
// attributes of their own table as parents and, unless UniformJoin, the
// attributes of any table one foreign-key hop away. Join indicators may
// take attributes from either side of their key. Join indicators are never
// *candidate* parents: they enter attribute parent lists only as forced
// companions of cross-table parents (paper §3.2).
func (o *prmOracle) CandidateParents(child int) []int {
	if cached, ok := o.candCache[child]; ok {
		return cached
	}
	cv := o.vars[child]
	var out []int
	switch cv.Kind {
	case AttrVar:
		t := o.db.Table(cv.Table)
		for _, a := range t.Attributes {
			if a.Name != cv.Attr {
				out = append(out, o.index[cv.Table+"."+a.Name])
			}
		}
		if !o.cfg.UniformJoin {
			for _, fk := range t.ForeignKeys {
				ref := o.db.Table(fk.To)
				for _, a := range ref.Attributes {
					out = append(out, o.index[fk.To+"."+a.Name])
				}
			}
		}
		// Optional single-pass pruning: keep only the most informative
		// candidates by pairwise mutual information.
		out = learn.TopKByMI(out, func(p int) float64 { return o.pairMI(child, p) }, o.cfg.Fit.TopKCandidates)
	case JoinVar:
		// Join indicators keep all candidates — they have few, and join
		// skew is the signal the model exists to capture.
		if o.cfg.UniformJoin {
			return nil
		}
		for _, tn := range []string{cv.Table, cv.Ref} {
			for _, a := range o.db.Table(tn).Attributes {
				out = append(out, o.index[tn+"."+a.Name])
			}
		}
	}
	o.candCache[child] = out
	return out
}

// pairMI computes the mutual information between attribute child and one
// candidate attribute parent.
func (o *prmOracle) pairMI(child, parent int) float64 {
	c, err := attrCounts(o.db, o.vars, child, []int{parent})
	if err != nil {
		return 0
	}
	return c.MutualInformation()
}

// Fit implements learn.Oracle.
func (o *prmOracle) Fit(child int, parents []int, maxBytes int) ([]int, learn.FitResult, error) {
	cv := o.vars[child]
	if cv.Kind == JoinVar {
		fr, err := o.fitJoin(child, parents, maxBytes)
		return append([]int(nil), parents...), fr, err
	}
	return o.fitAttr(child, parents, maxBytes)
}

// fitAttr fits the CPD of an attribute variable. Cross-table parents are
// read through the table's first foreign key to theirs; for each such
// key the join indicator is prepended to the expanded parent list and the
// CPD is wrapped so that the indicator's false branch falls back to the
// attribute's marginal, per the paper's constraint that the CPD is only
// meaningful when the tuples join.
func (o *prmOracle) fitAttr(child int, parents []int, maxBytes int) ([]int, learn.FitResult, error) {
	cv := o.vars[child]
	t := o.db.Table(cv.Table)
	childIdx := t.AttrIndex(cv.Attr)

	var fksUsed []int // indexes into t.ForeignKeys, in first-use order
	for _, p := range parents {
		pv := o.vars[p]
		if pv.Kind != AttrVar {
			return nil, learn.FitResult{}, fmt.Errorf("core: %s cannot take join indicator %s as a direct parent", cv.Name(), pv.Name())
		}
		if pv.Table == cv.Table {
			continue
		}
		if fi := firstFK(t, pv.Table); fi >= 0 && !slices.Contains(fksUsed, fi) {
			fksUsed = append(fksUsed, fi)
		}
	}
	counts, err := attrCounts(o.db, o.vars, child, parents)
	if err != nil {
		return nil, learn.FitResult{}, err
	}

	// Reserve space for the join guards the wrapper adds below (one split
	// and one marginal leaf per foreign key used).
	guardBytes := len(fksUsed) * (bayesnet.SplitBytes + (cv.Card-1)*bayesnet.ParamBytes)
	capBytes := maxBytes
	if capBytes > 0 {
		capBytes -= guardBytes
		if capBytes < bayesnet.ParamBytes {
			capBytes = bayesnet.ParamBytes
		}
	}
	fr := learn.FitCPD(o.cfg.Fit.Kind, counts, o.cfg.Fit.Tree, capBytes)
	if len(fksUsed) == 0 {
		return append([]int(nil), parents...), fr, nil
	}

	// Expanded parent list: join indicators first (FK first-use order),
	// then the chosen parents.
	expanded := make([]int, 0, len(fksUsed)+len(parents))
	for _, fi := range fksUsed {
		jid := o.index[cv.Table+"~"+t.ForeignKeys[fi].Name]
		expanded = append(expanded, jid)
	}
	expanded = append(expanded, parents...)

	marginal := o.marginalDist(t, childIdx)
	switch cpd := fr.CPD.(type) {
	case *bayesnet.TreeCPD:
		fr.CPD = wrapTreeWithJoinGuards(cpd, len(fksUsed), marginal)
	case *bayesnet.TableCPD:
		fr.CPD = wrapTableWithJoinGuards(cpd, len(fksUsed), marginal)
	default:
		return nil, learn.FitResult{}, fmt.Errorf("core: unsupported CPD kind %q", fr.CPD.Kind())
	}
	fr.Bytes = fr.CPD.StorageBytes()
	return expanded, fr, nil
}

// marginalDist returns the empirical marginal of attribute ai of t.
func (o *prmOracle) marginalDist(t *dataset.Table, ai int) []float64 {
	counts := t.AttrCounts(ai)
	dist := make([]float64, len(counts))
	n := float64(t.Len())
	if n == 0 {
		u := 1 / float64(len(counts))
		for i := range dist {
			dist[i] = u
		}
		return dist
	}
	for i, c := range counts {
		dist[i] = float64(c) / n
	}
	return dist
}

// wrapTreeWithJoinGuards prepends k join-indicator dimensions to a tree
// CPD: a chain of root splits on the indicators whose false branches hold
// the marginal leaf, with the fitted tree under the all-true path. Split
// indexes of the fitted tree shift by k.
func wrapTreeWithJoinGuards(fitted *bayesnet.TreeCPD, k int, marginal []float64) *bayesnet.TreeCPD {
	shift(fitted.Root, k)
	node := fitted.Root
	for i := k - 1; i >= 0; i-- {
		falseLeaf := &bayesnet.TreeNode{Dist: append([]float64(nil), marginal...)}
		node = &bayesnet.TreeNode{
			Split:    i,
			Children: []*bayesnet.TreeNode{falseLeaf, node},
		}
	}
	cards := make([]int, 0, k+len(fitted.ParentCards))
	for i := 0; i < k; i++ {
		cards = append(cards, 2)
	}
	cards = append(cards, fitted.ParentCards...)
	return &bayesnet.TreeCPD{ChildCard: fitted.ChildCard, ParentCards: cards, Root: node}
}

func shift(n *bayesnet.TreeNode, k int) {
	if n.IsLeaf() {
		return
	}
	n.Split += k
	for _, c := range n.Children {
		shift(c, k)
	}
}

// wrapTableWithJoinGuards prepends k join-indicator dimensions to a table
// CPD; configurations with any indicator false carry the marginal.
func wrapTableWithJoinGuards(fitted *bayesnet.TableCPD, k int, marginal []float64) *bayesnet.TableCPD {
	cards := make([]int, 0, k+len(fitted.ParentCards))
	for i := 0; i < k; i++ {
		cards = append(cards, 2)
	}
	cards = append(cards, fitted.ParentCards...)
	out := bayesnet.NewTableCPD(fitted.ChildCard, cards)
	jConfigs := 1 << k
	restConfigs := len(fitted.Dist) / fitted.ChildCard
	for rc := 0; rc < restConfigs; rc++ {
		for jc := 0; jc < jConfigs; jc++ {
			dstBase := (rc*jConfigs + jc) * out.ChildCard
			if jc == jConfigs-1 { // all indicators true
				srcBase := rc * fitted.ChildCard
				copy(out.Dist[dstBase:dstBase+out.ChildCard], fitted.Dist[srcBase:srcBase+fitted.ChildCard])
			} else {
				copy(out.Dist[dstBase:dstBase+out.ChildCard], marginal)
			}
		}
	}
	return out
}

// fitJoin fits the CPD of a join indicator from its pair counts over R×S.
func (o *prmOracle) fitJoin(child int, parents []int, maxBytes int) (learn.FitResult, error) {
	js, err := joinCounts(o.db, o.vars, child, parents)
	if err != nil {
		return learn.FitResult{}, err
	}
	return learn.FitCPD(o.cfg.Fit.Kind, js.derive(), o.cfg.Fit.Tree, maxBytes), nil
}
