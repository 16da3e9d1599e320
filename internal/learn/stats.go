package learn

import (
	"fmt"

	"prmsel/internal/bayesnet"
)

// Refit (paper §6): the maximum-likelihood parameters of every CPD are a
// pure function of its contingency counts, so re-estimating them with the
// structure fixed is a renormalization of counts, however those counts
// were obtained — a rescan or an incrementally maintained contingency.
// Counts hold integer-valued weights far below 2^53, so float64 addition
// over them is exact and independent of accumulation order: equal counts
// produce identical normalizing divisions and bit-identical distributions.

// RefitTreeCPD replaces the tree's leaf distributions with the
// maximum-likelihood estimates under the counts, keeping the split
// structure fixed. Leaves that receive no weight keep their old
// distributions, so configurations unseen in the new data keep their old
// estimates.
func RefitTreeCPD(cpd *bayesnet.TreeCPD, c *Counts) {
	counts := make(map[*bayesnet.TreeNode][]float64)
	childCard := c.ChildCard()
	vals := make([]int32, len(c.Cards))
	for k, w := range c.Cells {
		c.Unpack(k, vals)
		leaf := cpd.Leaf(vals[1:])
		dist := counts[leaf]
		if dist == nil {
			dist = make([]float64, childCard)
			counts[leaf] = dist
		}
		dist[vals[0]] += w
	}
	for leaf, dist := range counts {
		var total float64
		for _, w := range dist {
			total += w
		}
		if total <= 0 {
			continue
		}
		for x := range dist {
			dist[x] /= total
		}
		leaf.Dist = dist
	}
}

// RefitTableCPD replaces the table's per-configuration distributions with
// the maximum-likelihood estimates under the counts. Configurations that
// receive no weight keep their old distributions.
func RefitTableCPD(cpd *bayesnet.TableCPD, c *Counts) {
	counts := make(map[int][]float64)
	childCard := c.ChildCard()
	vals := make([]int32, len(c.Cards))
	for k, w := range c.Cells {
		c.Unpack(k, vals)
		cfg := cpd.Config(vals[1:])
		dist := counts[cfg]
		if dist == nil {
			dist = make([]float64, childCard)
			counts[cfg] = dist
		}
		dist[vals[0]] += w
	}
	for cfg, dist := range counts {
		var total float64
		for _, w := range dist {
			total += w
		}
		if total <= 0 {
			continue
		}
		base := cfg * cpd.ChildCard
		for x := range dist {
			cpd.Dist[base+x] = dist[x] / total
		}
	}
}

// RefitCPD dispatches on the CPD representation.
func RefitCPD(cpd bayesnet.CPD, c *Counts) error {
	switch t := cpd.(type) {
	case *bayesnet.TreeCPD:
		RefitTreeCPD(t, c)
		return nil
	case *bayesnet.TableCPD:
		RefitTableCPD(t, c)
		return nil
	default:
		return fmt.Errorf("learn: refit: unsupported CPD kind %q", cpd.Kind())
	}
}
