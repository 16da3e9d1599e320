package learn

import (
	"math/rand"
	"testing"

	"prmsel/internal/bayesnet"
)

// randVals draws a random observation over cards.
func randVals(rng *rand.Rand, cards []int) []int32 {
	vals := make([]int32, len(cards))
	for i, c := range cards {
		vals[i] = int32(rng.Intn(c))
	}
	return vals
}

// buildCounts counts obs, one unit of weight each, into fresh counts.
func buildCounts(cards []int, obs [][]int32) *Counts {
	c := NewCounts(cards)
	for _, o := range obs {
		c.Add(o, 1)
	}
	return c
}

// TestRefitBitForBit: fitting a CPD structure on initial data, then
// refitting it once from counts grown by a stream of inserts and once from
// counts rebuilt from scratch over the same final multiset, must produce
// bit-identical distributions (integer weights make float64 accumulation
// exact, so equal counts imply equal parameters).
func TestRefitBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cards := []int{3, 3, 2, 4}
	var initial [][]int32
	for i := 0; i < 500; i++ {
		initial = append(initial, randVals(rng, cards))
	}

	// Evolve the dataset by inserts.
	grown := buildCounts(cards, initial)
	live := append([][]int32(nil), initial...)
	for step := 0; step < 100; step++ {
		for i := 0; i < rng.Intn(5); i++ {
			o := randVals(rng, cards)
			grown.Add(o, 1)
			live = append(live, o)
		}
	}
	scratch := buildCounts(cards, live)

	for _, kind := range []CPDKind{Tree, Table} {
		// Two structurally identical CPDs fit on the initial data.
		a := FitCPD(kind, buildCounts(cards, initial), TreeOptions{}, 0).CPD
		b := FitCPD(kind, buildCounts(cards, initial), TreeOptions{}, 0).CPD
		if err := RefitCPD(a, grown); err != nil {
			t.Fatalf("%v: refit from grown counts: %v", kind, err)
		}
		if err := RefitCPD(b, scratch); err != nil {
			t.Fatalf("%v: refit from scratch: %v", kind, err)
		}
		assertCPDBitEqual(t, a, b)
	}
}

// TestRefitKeepsUnseenConfigs: configurations with no weight in the new
// counts keep their previous distributions.
func TestRefitKeepsUnseenConfigs(t *testing.T) {
	cards := []int{2, 2}
	full := NewCounts(cards)
	full.Add([]int32{0, 0}, 3)
	full.Add([]int32{1, 0}, 1)
	full.Add([]int32{0, 1}, 2)
	full.Add([]int32{1, 1}, 2)
	cpd := FitTable(full).CPD.(*bayesnet.TableCPD)
	before := append([]float64(nil), cpd.Dist...)

	// New counts touch only parent config 0.
	sparse := NewCounts(cards)
	sparse.Add([]int32{1, 0}, 5)
	RefitTableCPD(cpd, sparse)
	if cpd.Dist[0] != 0 || cpd.Dist[1] != 1 {
		t.Fatalf("config 0 not refit: %v", cpd.Dist[:2])
	}
	if cpd.Dist[2] != before[2] || cpd.Dist[3] != before[3] {
		t.Fatalf("unseen config 1 changed: %v -> %v", before[2:], cpd.Dist[2:])
	}
}

// assertCPDBitEqual walks both CPDs and requires exact float64 equality of
// every distribution entry.
func assertCPDBitEqual(t *testing.T, a, b bayesnet.CPD) {
	t.Helper()
	switch ca := a.(type) {
	case *bayesnet.TableCPD:
		cb := b.(*bayesnet.TableCPD)
		if len(ca.Dist) != len(cb.Dist) {
			t.Fatalf("table sizes differ: %d vs %d", len(ca.Dist), len(cb.Dist))
		}
		for i := range ca.Dist {
			if ca.Dist[i] != cb.Dist[i] {
				t.Fatalf("table dist[%d]: %v != %v", i, ca.Dist[i], cb.Dist[i])
			}
		}
	case *bayesnet.TreeCPD:
		cb := b.(*bayesnet.TreeCPD)
		var da, db [][]float64
		ca.Walk(func(n *bayesnet.TreeNode) {
			if n.IsLeaf() {
				da = append(da, n.Dist)
			}
		})
		cb.Walk(func(n *bayesnet.TreeNode) {
			if n.IsLeaf() {
				db = append(db, n.Dist)
			}
		})
		if len(da) != len(db) {
			t.Fatalf("leaf counts differ: %d vs %d", len(da), len(db))
		}
		for i := range da {
			if len(da[i]) != len(db[i]) {
				t.Fatalf("leaf %d dist lengths differ", i)
			}
			for j := range da[i] {
				if da[i][j] != db[i][j] {
					t.Fatalf("leaf %d dist[%d]: %v != %v", i, j, da[i][j], db[i][j])
				}
			}
		}
	default:
		t.Fatalf("unexpected CPD kind %T", a)
	}
}
