package learn

import "prmsel/internal/bayesnet"

// CPDKind selects the CPD representation produced by fitting.
type CPDKind int

const (
	// Tree fits tree-structured CPDs (the paper's default; more accurate
	// per byte).
	Tree CPDKind = iota
	// Table fits full-table CPDs.
	Table
)

func (k CPDKind) String() string {
	if k == Table {
		return "table"
	}
	return "tree"
}

// FitResult is a fitted CPD together with its likelihood and storage cost.
type FitResult struct {
	CPD    bayesnet.CPD
	LogLik float64 // Σ_samples ln P(child | parents) at the MLE
	Bytes  int
}

// TreeOptions tunes tree-CPD growth.
type TreeOptions struct {
	// PenaltyPerParam is the minimum log-likelihood gain (nats) demanded
	// per additional free parameter before a split is accepted. Zero means
	// the default of 1 nat — enough to reject pure-noise splits while
	// letting the byte budget, not the penalty, bound model size (the
	// paper's score is pure likelihood under a space constraint, §4.1).
	// Negative means no penalty at all.
	PenaltyPerParam float64
	// MaxBytes caps the tree's storage cost; 0 means unlimited.
	MaxBytes int
	// MaxLeaves bounds growth when MaxBytes is unlimited; 0 means the
	// default of 1024.
	MaxLeaves int
}

// FitCPD fits a CPD of the requested kind to the counts, keeping trees
// within maxBytes when maxBytes > 0.
func FitCPD(kind CPDKind, c *Counts, opts TreeOptions, maxBytes int) FitResult {
	if kind == Table {
		return FitTable(c)
	}
	if maxBytes > 0 && (opts.MaxBytes == 0 || maxBytes < opts.MaxBytes) {
		opts.MaxBytes = maxBytes
	}
	return GrowTree(c, opts)
}

// FitTable fits a full-table CPD at the maximum-likelihood parameters: each
// parent configuration's child distribution is the empirical conditional
// frequency (uniform for configurations never observed).
func FitTable(c *Counts) FitResult {
	childCard := c.ChildCard()
	parentCards := c.Cards[1:]
	cpd := bayesnet.NewTableCPD(childCard, parentCards)
	// Aggregate per parent configuration.
	type agg struct {
		dist  []float64
		total float64
	}
	groups := make(map[uint64]*agg)
	vals := make([]int32, len(c.Cards))
	for k, w := range c.Cells {
		c.Unpack(k, vals)
		cfg := k / uint64(childCard)
		g := groups[cfg]
		if g == nil {
			g = &agg{dist: make([]float64, childCard)}
			groups[cfg] = g
		}
		g.dist[vals[0]] += w
		g.total += w
	}
	var ll float64
	dist := make([]float64, childCard)
	for cfg, g := range groups {
		ll += distLogLik(g.dist)
		for x := range dist {
			dist[x] = g.dist[x] / g.total
		}
		base := int(cfg) * childCard
		copy(cpd.Dist[base:base+childCard], dist)
	}
	return FitResult{CPD: cpd, LogLik: ll, Bytes: cpd.StorageBytes()}
}

// growLeaf is a leaf under construction. Its best split is computed lazily
// and cached: only the two children of an applied split need fresh
// evaluation, so growth is near-linear in the number of splits.
type growLeaf struct {
	node        *bayesnet.TreeNode
	depth       int // the root is at depth 0
	entries     []entry
	childCounts []float64
	ll          float64
	plan        *splitPlan
	planReady   bool
}

// splitPlan is the best candidate split of one leaf: always binary (an
// equality or ordinal-threshold predicate on one parent), so each applied
// split adds exactly one leaf's worth of parameters. Binary splits let the
// tree spend a small byte budget on exactly the distinctions that matter —
// a k-way split on a wide parent would cost the whole fan-out at once.
type splitPlan struct {
	leaf    *growLeaf
	parent  int // index into parent list
	op      bayesnet.SplitOp
	arg     int32
	gain    float64
	dBytes  int
	dParams int
}

// GrowTree fits a tree CPD by greedy top-down induction: starting from a
// single marginal leaf, repeatedly apply the leaf split with the best
// likelihood gain per byte, as long as the gain exceeds the MDL penalty,
// the byte cap permits, and the leaf is above bayesnet.MaxTreeDepth. This
// is the tree-refinement operator of the paper's search (§4.3.3) folded
// into CPD fitting.
func GrowTree(c *Counts, opts TreeOptions) FitResult {
	childCard := c.ChildCard()
	parentCards := c.Cards[1:]
	cpd := bayesnet.NewTreeCPD(childCard, parentCards)

	penalty := opts.PenaltyPerParam
	switch {
	case penalty == 0:
		penalty = 1
	case penalty < 0:
		penalty = 0
	}
	maxLeaves := opts.MaxLeaves
	if maxLeaves == 0 {
		maxLeaves = 1024
	}

	root := &growLeaf{
		node:        cpd.Root,
		entries:     c.entries(),
		childCounts: make([]float64, childCard),
	}
	for _, e := range root.entries {
		root.childCounts[e.child] += e.w
	}
	root.ll = distLogLik(root.childCounts)
	setLeafDist(root)

	leaves := []*growLeaf{root}
	bytes := cpd.StorageBytes()
	totalLL := root.ll

	for len(leaves) < maxLeaves {
		var best *splitPlan
		var bestRatio float64
		for _, lf := range leaves {
			if !lf.planReady {
				// A leaf at the depth bound stays a leaf: its children
				// would make a tree the decoder refuses.
				if lf.depth < bayesnet.MaxTreeDepth {
					lf.plan = bestSplit(lf, childCard, parentCards, penalty)
				}
				lf.planReady = true
			}
			plan := lf.plan
			if plan == nil {
				continue
			}
			if opts.MaxBytes > 0 && bytes+plan.dBytes > opts.MaxBytes {
				continue
			}
			ratio := (plan.gain - penalty*float64(plan.dParams)) / float64(plan.dBytes)
			if best == nil || ratio > bestRatio {
				best, bestRatio = plan, ratio
			}
		}
		if best == nil {
			break
		}
		children := applySplit(best, childCard)
		totalLL += best.gain
		bytes += best.dBytes
		// Replace the split leaf in the worklist with its children.
		out := leaves[:0]
		for _, lf := range leaves {
			if lf != best.leaf {
				out = append(out, lf)
			}
		}
		leaves = append(out, children...)
	}
	return FitResult{CPD: cpd, LogLik: totalLL, Bytes: cpd.StorageBytes()}
}

// setLeafDist writes the normalized child distribution into the leaf node.
func setLeafDist(lf *growLeaf) {
	childCard := len(lf.childCounts)
	dist := make([]float64, childCard)
	var total float64
	for _, w := range lf.childCounts {
		total += w
	}
	if total > 0 {
		for x, w := range lf.childCounts {
			dist[x] = w / total
		}
	} else {
		u := 1 / float64(childCard)
		for x := range dist {
			dist[x] = u
		}
	}
	lf.node.Dist = dist
}

// takesBranch reports whether parent value val goes to the first (matching)
// child of the split.
func takesBranch(op bayesnet.SplitOp, arg, val int32) bool {
	if op == bayesnet.OpEQ {
		return val == arg
	}
	return val <= arg
}

// applySplit turns the plan's leaf into an interior vertex and returns the
// two new leaves.
func applySplit(plan *splitPlan, childCard int) []*growLeaf {
	lf := plan.leaf
	children := []*growLeaf{
		{node: &bayesnet.TreeNode{}, depth: lf.depth + 1, childCounts: make([]float64, childCard)},
		{node: &bayesnet.TreeNode{}, depth: lf.depth + 1, childCounts: make([]float64, childCard)},
	}
	for _, e := range lf.entries {
		side := 1
		if takesBranch(plan.op, plan.arg, e.parents[plan.parent]) {
			side = 0
		}
		children[side].entries = append(children[side].entries, e)
		children[side].childCounts[e.child] += e.w
	}
	for _, c := range children {
		c.ll = distLogLik(c.childCounts)
		setLeafDist(c)
	}
	lf.node.Dist = nil
	lf.node.Split = plan.parent
	lf.node.Op = plan.op
	lf.node.Arg = plan.arg
	lf.node.Children = []*bayesnet.TreeNode{children[0].node, children[1].node}
	lf.entries = nil
	return children
}

// bestSplit returns the highest-net-gain binary split of lf, or nil if no
// split has a positive MDL-adjusted gain.
func bestSplit(lf *growLeaf, childCard int, parentCards []int, penalty float64) *splitPlan {
	if len(lf.entries) < 2 {
		return nil
	}
	dParams := childCard - 1 // one additional leaf
	dBytes := bayesnet.SplitBytes + dParams*bayesnet.ParamBytes
	var best *splitPlan
	var bestNet float64
	for p, card := range parentCards {
		// Per-value child-count aggregates for this parent.
		valTotals := make([]float64, card)
		valCounts := make([][]float64, card)
		for _, e := range lf.entries {
			v := e.parents[p]
			if valCounts[v] == nil {
				valCounts[v] = make([]float64, childCard)
			}
			valCounts[v][e.child] += e.w
			valTotals[v] += e.w
		}
		present := 0
		for v := 0; v < card; v++ {
			if valTotals[v] > 0 {
				present++
			}
		}
		if present < 2 {
			continue
		}
		consider := func(op bayesnet.SplitOp, arg int32, inCounts []float64, inTotal float64) {
			if inTotal <= 0 {
				return
			}
			rest := make([]float64, childCard)
			var restTotal float64
			for x := 0; x < childCard; x++ {
				rest[x] = lf.childCounts[x] - inCounts[x]
				restTotal += rest[x]
			}
			if restTotal <= 0 {
				return
			}
			gain := distLogLik(inCounts) + distLogLik(rest) - lf.ll
			net := gain - penalty*float64(dParams)
			if net <= 0 {
				return
			}
			if best == nil || net > bestNet {
				best = &splitPlan{
					leaf: lf, parent: p, op: op, arg: arg,
					gain: gain, dBytes: dBytes, dParams: dParams,
				}
				bestNet = net
			}
		}
		// Equality splits on each present value.
		for v := 0; v < card; v++ {
			if valTotals[v] > 0 {
				consider(bayesnet.OpEQ, int32(v), valCounts[v], valTotals[v])
			}
		}
		// Threshold splits at each boundary (prefix accumulation).
		prefix := make([]float64, childCard)
		var prefixTotal float64
		for v := 0; v < card-1; v++ {
			if valCounts[v] != nil {
				for x := 0; x < childCard; x++ {
					prefix[x] += valCounts[v][x]
				}
				prefixTotal += valTotals[v]
			}
			consider(bayesnet.OpLE, int32(v), prefix, prefixTotal)
		}
	}
	return best
}
