package bayesnet

import (
	"context"
	"fmt"

	"prmsel/internal/factor"
	"prmsel/internal/faults"
	"prmsel/internal/obs"
)

// This file implements compiled query plans: the structural work of
// probability() — ancestral closure, evidence classification, elimination
// ordering, and the exact sequence of factor operations — depends only on
// the query *shape* (which variables carry equality vs. set evidence),
// never on the constants. A Plan captures that work once; executing it
// replays the identical floating-point operations through the
// allocation-free kernels in internal/factor, reading operands out of one
// pooled slab. Results are bit-for-bit equal to the uncompiled path.
//
// A plan reads the CPD tables the network held when it was compiled; the
// caller that keeps plans (core, one per query shape and parameter epoch)
// drops them with the parameters.

// srcRef locates one operand table at execution time: a CPD factor read
// in place (index into Plan.shared) or a region of the pooled slab (index
// into Plan.regions). Exactly one index is >= 0.
type srcRef struct {
	shared int
	region int
}

// region is one slab-relative buffer a plan writes intermediates into.
// Regions with disjoint lifetimes share offsets (see regionAlloc).
type region struct {
	off, size int
}

// Prep-step kinds: the per-CPD evidence application that precedes
// elimination. pGather collapses every equality-evidence dimension of one
// factor into a single block copy (the fused form of the uncompiled path's
// Fix chain), pCopy materializes a shared factor into the slab so
// pRestrict can zero rejected rows in place (Restrict without the clone).
const (
	pGather = int8(iota)
	pCopy
	pRestrict
)

type prepStep struct {
	kind   int8
	u      int // pRestrict: evidence variable
	inner  int // pRestrict: stride below u's dimension in the current scope
	card   int
	src    srcRef
	dst    int // region index written (pRestrict: acted on in place)
	aux    int // pRestrict: index into Plan.restricted
	gather *gatherPlan
}

// gatherPlan is the compile-time residue of fusing a factor's Fix chain:
// the surviving elements form blocks of blockLen contiguous floats at
// evidence-independent source offsets blockOffs, shifted by the
// evidence-dependent base Σ value(u)·stride(u) over the fixed dimensions.
type gatherPlan struct {
	terms     []offsetTerm
	blockLen  int
	blockOffs []int
}

// scalarLookup is the all-dimensions-fixed fast path: a CPD factor whose
// entire scope carries equality evidence reduces to a single table read at
// offset Σ value(u)·stride(u), skipping every intermediate Fix.
type scalarLookup struct {
	shared int
	terms  []offsetTerm
}

type offsetTerm struct {
	u      int
	stride int
}

// Exec-step kinds: sBoundary re-checks the context between eliminated
// variables (matching the uncompiled loop), sProduct and sSumOut are the
// scheduled factor operations.
const (
	sBoundary = int8(iota)
	sProduct
	sSumOut
)

type execStep struct {
	kind     int8
	l, r     srcRef
	dst      int
	outCards []int
	lStride  []int
	rStride  []int
	width    int // product scope width, for budget admission
	cells    int // product table size, for budget admission
	inner    int // sSumOut
	card     int // sSumOut
}

// finalRef is one factor surviving elimination, in list order; the result
// is the product of their masses (scalar lookups contribute themselves).
type finalRef struct {
	scalar int // index into Plan.scalars, or -1
	ref    srcRef
}

// Plan is the compiled form of one query shape: the static factor-
// operation schedule probability() would perform, with every scope,
// stride map, dimension index, and buffer offset resolved at compile
// time. A Plan is immutable after compilation and safe for concurrent
// execution; each execution borrows a scratch slab from the plan's pool.
type Plan struct {
	shared     []*factor.Factor
	scalars    []scalarLookup
	preps      []prepStep
	steps      []execStep
	finals     []finalRef
	regions    []region
	restricted []int // variables carrying set evidence, in closure order
	slabFloats int
	odoWidth   int
	pool       *factor.Pool

	// Trace constants, mirroring the uncompiled path's span attributes.
	closure    int
	clamped    int
	eliminated int
	products   int
	maxCells   int
}

// regionAlloc assigns slab regions during compilation, recycling a
// region's storage once the step consuming it has been emitted. Only
// exact-size reuse is attempted; elimination chains ping-pong between a
// handful of sizes, which this catches.
type regionAlloc struct {
	p    *Plan
	free map[int][]int // size -> reusable region indices
}

func (a *regionAlloc) get(size int) int {
	if ids := a.free[size]; len(ids) > 0 {
		id := ids[len(ids)-1]
		a.free[size] = ids[:len(ids)-1]
		return id
	}
	id := len(a.p.regions)
	a.p.regions = append(a.p.regions, region{off: a.p.slabFloats, size: size})
	a.p.slabFloats += size
	return id
}

// release recycles a region once its consumer step has been emitted;
// shared refs are never recycled.
func (a *regionAlloc) release(r srcRef) {
	if r.region < 0 {
		return
	}
	size := a.p.regions[r.region].size
	a.free[size] = append(a.free[size], r.region)
}

// Compile builds the plan of evt's shape — which variables carry equality
// evidence and which carry set evidence — by symbolically executing the
// uncompiled path: the same closure, the same per-CPD evidence reduction
// (with each Fix chain fused into one gather — element selection and
// zeroing commute, so the fused data is byte-identical), the same
// elimination order, and the same left-fold product order inside
// eliminate(). Only shapes are consulted — never evt's values — so the
// plan serves every event of the shape (Plan.Probability), and the
// arithmetic performed is identical to the uncompiled path's, making
// results bit-for-bit equal. evt must name the network's variables, as
// Probability checks; Compile does not.
func (n *Network) Compile(evt Event) *Plan {
	closure := n.ancestralClosure(evt)
	fixedSet := make(map[int]bool, len(evt))
	restrictedIdx := make(map[int]int, len(evt))
	p := &Plan{closure: len(closure)}
	for v, set := range evt {
		if len(set) == 1 {
			fixedSet[v] = true
		} else if _, ok := restrictedIdx[v]; !ok {
			restrictedIdx[v] = -1 // assigned in closure order below
		}
	}
	p.clamped = len(fixedSet)
	for _, v := range closure {
		if _, ok := restrictedIdx[v]; ok {
			restrictedIdx[v] = len(p.restricted)
			p.restricted = append(p.restricted, v)
		}
	}

	alloc := &regionAlloc{p: p, free: make(map[int][]int)}

	// symFactor tracks one factor of the working list through compilation:
	// its evolving scope and where its data will live at execution time.
	type symFactor struct {
		vars   []int
		cards  []int
		ref    srcRef
		scalar int
	}
	syms := make([]symFactor, 0, len(closure))
	for _, v := range closure {
		f := n.Factor(v)
		sharedIdx := len(p.shared)
		p.shared = append(p.shared, f)

		allFixed := len(f.Vars) > 0
		for _, u := range f.Vars {
			if !fixedSet[u] {
				allFixed = false
				break
			}
		}
		if allFixed {
			// Every dimension clamps: the chain of Fixes the uncompiled
			// path performs composes to one direct table read.
			strides := factor.Strides(f.Card)
			sl := scalarLookup{shared: sharedIdx}
			for i, u := range f.Vars {
				sl.terms = append(sl.terms, offsetTerm{u: u, stride: strides[i]})
			}
			idx := len(p.scalars)
			p.scalars = append(p.scalars, sl)
			syms = append(syms, symFactor{ref: srcRef{shared: -1, region: -1}, scalar: idx})
			continue
		}

		curVars := append([]int(nil), f.Vars...)
		curCards := append([]int(nil), f.Card...)
		cur := srcRef{shared: sharedIdx, region: -1}

		nFixed := 0
		for _, u := range f.Vars {
			if fixedSet[u] {
				nFixed++
			}
		}
		if nFixed > 0 {
			// Fix is pure element selection and Restrict pure zeroing, so
			// they commute bitwise: the chain of per-dimension Fixes the
			// uncompiled path performs collapses into one gather — a single
			// copy of the surviving elements, with source offsets resolved
			// at compile time up to the evidence values.
			strides := factor.Strides(f.Card)
			g := &gatherPlan{blockLen: 1}
			remVars := make([]int, 0, len(f.Vars)-nFixed)
			remCards := make([]int, 0, len(f.Vars)-nFixed)
			remStrides := make([]int, 0, len(f.Vars)-nFixed)
			for i, u := range f.Vars {
				if fixedSet[u] {
					g.terms = append(g.terms, offsetTerm{u: u, stride: strides[i]})
				} else {
					remVars = append(remVars, u)
					remCards = append(remCards, f.Card[i])
					remStrides = append(remStrides, strides[i])
				}
			}
			// Blocks are maximal contiguous runs in the source: a remaining
			// dimension whose stride equals the run length so far extends
			// the run through its whole extent.
			j := 0
			for j < len(remCards) && remStrides[j] == g.blockLen {
				g.blockLen *= remCards[j]
				j++
			}
			outer := remCards[j:]
			nBlocks := 1
			for _, c := range outer {
				nBlocks *= c
			}
			g.blockOffs = make([]int, nBlocks)
			idx := make([]int, len(outer))
			off := 0
			for b := 0; b < nBlocks; b++ {
				g.blockOffs[b] = off
				for d := 0; d < len(outer); d++ {
					idx[d]++
					off += remStrides[j+d]
					if idx[d] < outer[d] {
						break
					}
					off -= remStrides[j+d] * outer[d]
					idx[d] = 0
				}
			}
			dst := alloc.get(g.blockLen * nBlocks)
			p.preps = append(p.preps, prepStep{kind: pGather, src: cur, dst: dst, gather: g})
			cur = srcRef{shared: -1, region: dst}
			curVars = remVars
			curCards = remCards
		}
		if ri, ok := restrictedIdx[v]; ok {
			// v carries set evidence (a variable is never both fixed and
			// restricted, so it survived any gather). Restrict mutates; a
			// still-shared factor is copied into the slab first (the
			// uncompiled path's Clone), while a gathered region is already
			// private.
			k := indexOfSorted(curVars, v)
			inner := 1
			for i := 0; i < k; i++ {
				inner *= curCards[i]
			}
			if cur.region < 0 {
				size := 1
				for _, c := range curCards {
					size *= c
				}
				dst := alloc.get(size)
				p.preps = append(p.preps, prepStep{kind: pCopy, src: cur, dst: dst})
				cur = srcRef{shared: -1, region: dst}
			}
			p.preps = append(p.preps, prepStep{kind: pRestrict, u: v, inner: inner, card: curCards[k], src: cur, dst: cur.region, aux: ri})
		}
		syms = append(syms, symFactor{vars: curVars, cards: curCards, ref: cur, scalar: -1})
	}

	// Elimination order over the post-prep scopes, exactly as the
	// uncompiled path computes it. minFillOrder reads only Vars/Card, so
	// data-free factor headers suffice.
	elim := make([]int, 0, len(closure))
	headers := make([]*factor.Factor, 0, len(syms))
	for _, v := range closure {
		if !fixedSet[v] {
			elim = append(elim, v)
		}
	}
	for _, s := range syms {
		headers = append(headers, &factor.Factor{Vars: s.vars, Card: s.cards})
	}
	order := minFillOrder(elim, headers, n)
	p.eliminated = len(order)

	// Symbolic eliminate(): same list order, same left-fold of products,
	// SumOut result appended at the end.
	for _, v := range order {
		p.steps = append(p.steps, execStep{kind: sBoundary})
		next := make([]symFactor, 0, len(syms))
		acc := symFactor{scalar: -1}
		haveAcc := false
		for _, f := range syms {
			if indexOfSorted(f.vars, v) < 0 {
				next = append(next, f)
				continue
			}
			if !haveAcc {
				acc, haveAcc = f, true
				continue
			}
			uVars, uCards := unionScope(acc.vars, acc.cards, f.vars, f.cards)
			cells := 1
			for _, c := range uCards {
				cells *= c
			}
			lS := factor.StrideInto(uVars, acc.vars, acc.cards)
			rS := factor.StrideInto(uVars, f.vars, f.cards)
			dst := alloc.get(cells)
			p.steps = append(p.steps, execStep{
				kind: sProduct, l: acc.ref, r: f.ref, dst: dst,
				outCards: uCards, lStride: lS, rStride: rS,
				width: len(uVars), cells: cells,
			})
			alloc.release(acc.ref)
			alloc.release(f.ref)
			acc = symFactor{vars: uVars, cards: uCards, ref: srcRef{shared: -1, region: dst}, scalar: -1}
			p.products++
			if cells > p.maxCells {
				p.maxCells = cells
			}
			if len(uVars) > p.odoWidth {
				p.odoWidth = len(uVars)
			}
		}
		if haveAcc {
			k := indexOfSorted(acc.vars, v)
			inner := 1
			for i := 0; i < k; i++ {
				inner *= acc.cards[i]
			}
			card := acc.cards[k]
			outVars := make([]int, 0, len(acc.vars)-1)
			outCards := make([]int, 0, len(acc.cards)-1)
			size := 1
			for i := range acc.vars {
				if i != k {
					outVars = append(outVars, acc.vars[i])
					outCards = append(outCards, acc.cards[i])
					size *= acc.cards[i]
				}
			}
			dst := alloc.get(size)
			p.steps = append(p.steps, execStep{kind: sSumOut, l: acc.ref, dst: dst, inner: inner, card: card})
			alloc.release(acc.ref)
			next = append(next, symFactor{vars: outVars, cards: outCards, ref: srcRef{shared: -1, region: dst}, scalar: -1})
		}
		syms = next
	}

	for _, f := range syms {
		p.finals = append(p.finals, finalRef{scalar: f.scalar, ref: f.ref})
	}
	p.pool = factor.NewPool(p.slabFloats, p.odoWidth)
	return p
}

// Probability returns P(evt) by running the plan on evt's values, under
// ctx and budget as ProbabilityBudget describes. evt must have the shape
// the plan was compiled for, with values in their variables' domains; the
// values are not checked again. Budgeted runs pre-scan the schedule —
// every product's shape is a plan constant — so an over-budget query is
// refused before any work or allocation, with the same BudgetError and
// trace attributes the uncompiled guard produces.
func (plan *Plan) Probability(ctx context.Context, evt Event, budget Budget) (float64, error) {
	if len(evt) == 0 {
		return 1, nil
	}
	_, sp := obs.Start(ctx, "infer")
	if err := faults.Inject("bayesnet.infer"); err != nil {
		sp.Set(obs.Str("injected", err.Error()))
		sp.End()
		return 0, err
	}
	if budget.Enabled() {
		ran := 0
		for i := range plan.steps {
			st := &plan.steps[i]
			if st.kind != sProduct {
				continue
			}
			if (budget.MaxCells > 0 && st.cells > budget.MaxCells) || (budget.MaxWidth > 0 && st.width > budget.MaxWidth) {
				err := &BudgetError{Cells: st.cells, MaxCells: budget.MaxCells, Width: st.width, MaxWidth: budget.MaxWidth}
				sp.Set(obs.Str("refused", err.Error()), obs.Int("max_cells", ran))
				sp.End()
				return 0, err
			}
			if st.cells > ran {
				ran = st.cells
			}
		}
	}

	var accepts []map[int32]bool
	if len(plan.restricted) > 0 {
		accepts = make([]map[int32]bool, len(plan.restricted))
		for i, u := range plan.restricted {
			accept := make(map[int32]bool, len(evt[u]))
			for _, val := range evt[u] {
				accept[val] = true
			}
			accepts[i] = accept
		}
	}

	var sc *factor.Scratch
	if plan.slabFloats > 0 || plan.odoWidth > 0 {
		sc = plan.pool.Get()
		defer plan.pool.Put(sc)
	}
	data := func(r srcRef) []float64 {
		if r.shared >= 0 {
			return plan.shared[r.shared].Data
		}
		reg := plan.regions[r.region]
		return sc.Slab[reg.off : reg.off+reg.size]
	}
	regionData := func(id int) []float64 {
		reg := plan.regions[id]
		return sc.Slab[reg.off : reg.off+reg.size]
	}

	for i := range plan.preps {
		st := &plan.preps[i]
		switch st.kind {
		case pGather:
			g := st.gather
			base := 0
			for _, t := range g.terms {
				base += int(evt[t.u][0]) * t.stride
			}
			factor.GatherInto(regionData(st.dst), data(st.src), base, g.blockLen, g.blockOffs)
		case pCopy:
			copy(regionData(st.dst), data(st.src))
		case pRestrict:
			factor.RestrictInPlace(regionData(st.dst), st.inner, st.card, accepts[st.aux])
		}
	}

	for i := range plan.steps {
		st := &plan.steps[i]
		switch st.kind {
		case sBoundary:
			if err := ctx.Err(); err != nil {
				sp.Set(obs.Str("interrupted", err.Error()))
				sp.End()
				return 0, fmt.Errorf("bayesnet: inference interrupted: %w", err)
			}
		case sProduct:
			if budget.Enabled() {
				if err := ctx.Err(); err != nil {
					werr := fmt.Errorf("bayesnet: inference interrupted: %w", err)
					sp.Set(obs.Str("refused", werr.Error()), obs.Int("max_cells", plan.maxCells))
					sp.End()
					return 0, werr
				}
			}
			factor.ProductInto(regionData(st.dst), st.outCards, data(st.l), data(st.r), st.lStride, st.rStride, sc.Odo)
		case sSumOut:
			factor.SumOutInto(regionData(st.dst), data(st.l), st.inner, st.card)
		}
	}

	p := 1.0
	for _, fr := range plan.finals {
		if fr.scalar >= 0 {
			sl := &plan.scalars[fr.scalar]
			off := 0
			for _, t := range sl.terms {
				off += int(evt[t.u][0]) * t.stride
			}
			p *= plan.shared[sl.shared].Data[off]
		} else {
			var sum float64
			for _, x := range data(fr.ref) {
				sum += x
			}
			p *= sum
		}
	}
	if sp != nil {
		sp.Set(
			obs.Int("closure", plan.closure),
			obs.Int("clamped", plan.clamped),
			obs.Int("eliminated", plan.eliminated),
			obs.Int("products", plan.products),
			obs.Int("max_cells", plan.maxCells),
		)
		sp.End()
	}
	return p, nil
}

// indexOfSorted returns the position of v in the sorted slice vars, or -1.
func indexOfSorted(vars []int, v int) int {
	for i, x := range vars {
		if x == v {
			return i
		}
		if x > v {
			return -1
		}
	}
	return -1
}

// unionScope merges two sorted scopes, panicking on cardinality mismatch
// exactly like Product.
func unionScope(aVars, aCards, bVars, bCards []int) ([]int, []int) {
	vars := make([]int, 0, len(aVars)+len(bVars))
	cards := make([]int, 0, len(aVars)+len(bVars))
	i, j := 0, 0
	for i < len(aVars) || j < len(bVars) {
		switch {
		case j >= len(bVars) || (i < len(aVars) && aVars[i] < bVars[j]):
			vars = append(vars, aVars[i])
			cards = append(cards, aCards[i])
			i++
		case i >= len(aVars) || bVars[j] < aVars[i]:
			vars = append(vars, bVars[j])
			cards = append(cards, bCards[j])
			j++
		default:
			if aCards[i] != bCards[j] {
				panic(fmt.Sprintf("bayesnet: var %d has card %d in one factor, %d in the other", aVars[i], aCards[i], bCards[j]))
			}
			vars = append(vars, aVars[i])
			cards = append(cards, aCards[i])
			i++
			j++
		}
	}
	return vars, cards
}
