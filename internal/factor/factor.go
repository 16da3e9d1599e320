// Package factor implements discrete factor algebra — multiplication,
// marginalization, and reduction — over variables identified by small
// integer ids. It is the computational core of Bayesian-network inference.
//
// A factor φ over variables X1..Xk with cardinalities c1..ck stores a dense
// table of non-negative reals indexed in mixed radix with X1 as the
// fastest-varying dimension.
package factor

import (
	"fmt"
	"math"
	"sort"
)

// Factor is a non-negative real-valued function of a set of discrete
// variables. Vars are kept sorted ascending; Card aligns with Vars.
type Factor struct {
	Vars []int
	Card []int
	Data []float64
}

// New returns a zero-valued factor over the given variables. vars need not
// be sorted; cards align with vars.
func New(vars []int, cards []int) *Factor {
	f := Scope(vars, cards)
	size := 1
	for _, c := range f.Card {
		size *= c
	}
	f.Data = make([]float64, size)
	return f
}

// Scope returns a factor over the given variables with no table: Vars
// sorted, Card aligned with them, Data nil. A caller attaches a table
// laid out for that sorted order.
func Scope(vars []int, cards []int) *Factor {
	if len(vars) != len(cards) {
		panic(fmt.Sprintf("factor: %d vars but %d cards", len(vars), len(cards)))
	}
	idx := make([]int, len(vars))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] < vars[idx[b]] })
	f := &Factor{
		Vars: make([]int, len(vars)),
		Card: make([]int, len(vars)),
	}
	for i, j := range idx {
		f.Vars[i] = vars[j]
		f.Card[i] = cards[j]
	}
	for i := 1; i < len(f.Vars); i++ {
		if f.Vars[i] == f.Vars[i-1] {
			panic(fmt.Sprintf("factor: duplicate variable %d", f.Vars[i]))
		}
	}
	return f
}

// Scalar returns a variable-free factor holding v.
func Scalar(v float64) *Factor {
	return &Factor{Data: []float64{v}}
}

// IsScalar reports whether f has no variables.
func (f *Factor) IsScalar() bool { return len(f.Vars) == 0 }

// Value returns the scalar value of a variable-free factor.
func (f *Factor) Value() float64 {
	if !f.IsScalar() {
		panic("factor: Value on non-scalar factor")
	}
	return f.Data[0]
}

// Size returns the number of table entries.
func (f *Factor) Size() int { return len(f.Data) }

// indexOf returns the position of variable v in f.Vars, or -1. Vars are
// sorted ascending, so wide factors binary-search; the linear scan is kept
// for the narrow factors that dominate (branch prediction beats the
// bookkeeping below ~8 variables).
func (f *Factor) indexOf(v int) int {
	if len(f.Vars) <= 8 {
		for i, x := range f.Vars {
			if x == v {
				return i
			}
		}
		return -1
	}
	lo, hi := 0, len(f.Vars)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.Vars[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.Vars) && f.Vars[lo] == v {
		return lo
	}
	return -1
}

// At returns f evaluated at the given assignment, where assignment aligns
// with f.Vars.
func (f *Factor) At(assignment []int32) float64 {
	return f.Data[f.offset(assignment)]
}

// Set sets f at the assignment (aligned with f.Vars) to v.
func (f *Factor) Set(assignment []int32, v float64) {
	f.Data[f.offset(assignment)] = v
}

func (f *Factor) offset(assignment []int32) int {
	if len(assignment) != len(f.Vars) {
		panic(fmt.Sprintf("factor: assignment over %d values for %d vars", len(assignment), len(f.Vars)))
	}
	off, stride := 0, 1
	for i, v := range assignment {
		if v < 0 || int(v) >= f.Card[i] {
			panic(fmt.Sprintf("factor: value %d out of range [0,%d) for var %d", v, f.Card[i], f.Vars[i]))
		}
		off += int(v) * stride
		stride *= f.Card[i]
	}
	return off
}

// Clone returns a deep copy.
func (f *Factor) Clone() *Factor {
	return &Factor{
		Vars: append([]int(nil), f.Vars...),
		Card: append([]int(nil), f.Card...),
		Data: append([]float64(nil), f.Data...),
	}
}

// ProductSize returns the scope width and table size Product(f, g) would
// produce, without allocating anything — the check resource-guarded
// inference runs before committing to a product.
func ProductSize(f, g *Factor) (width, cells int) {
	cells = 1
	i, j := 0, 0
	for i < len(f.Vars) || j < len(g.Vars) {
		switch {
		case j >= len(g.Vars) || (i < len(f.Vars) && f.Vars[i] < g.Vars[j]):
			cells *= f.Card[i]
			i++
		case i >= len(f.Vars) || g.Vars[j] < f.Vars[i]:
			cells *= g.Card[j]
			j++
		default:
			cells *= f.Card[i]
			i++
			j++
		}
		width++
	}
	return width, cells
}

// Product returns f·g over the union of their scopes.
func Product(f, g *Factor) *Factor {
	// Union of scopes.
	vars := make([]int, 0, len(f.Vars)+len(g.Vars))
	cards := make([]int, 0, len(f.Vars)+len(g.Vars))
	i, j := 0, 0
	for i < len(f.Vars) || j < len(g.Vars) {
		switch {
		case j >= len(g.Vars) || (i < len(f.Vars) && f.Vars[i] < g.Vars[j]):
			vars = append(vars, f.Vars[i])
			cards = append(cards, f.Card[i])
			i++
		case i >= len(f.Vars) || g.Vars[j] < f.Vars[i]:
			vars = append(vars, g.Vars[j])
			cards = append(cards, g.Card[j])
			j++
		default:
			if f.Card[i] != g.Card[j] {
				panic(fmt.Sprintf("factor: var %d has card %d in one factor, %d in the other", f.Vars[i], f.Card[i], g.Card[j]))
			}
			vars = append(vars, f.Vars[i])
			cards = append(cards, f.Card[i])
			i++
			j++
		}
	}
	out := New(vars, cards)
	// Strides of each input factor along the output's dimensions.
	fStride := strideMap(out, f)
	gStride := strideMap(out, g)
	assignment := make([]int32, len(out.Vars))
	fOff, gOff := 0, 0
	for pos := range out.Data {
		out.Data[pos] = f.Data[fOff] * g.Data[gOff]
		// Odometer increment.
		for d := 0; d < len(assignment); d++ {
			assignment[d]++
			fOff += fStride[d]
			gOff += gStride[d]
			if int(assignment[d]) < out.Card[d] {
				break
			}
			assignment[d] = 0
			fOff -= fStride[d] * out.Card[d]
			gOff -= gStride[d] * out.Card[d]
		}
	}
	return out
}

// strideMap returns, for each dimension of out, the stride of in's data
// table along that dimension (0 if in does not contain the variable).
func strideMap(out, in *Factor) []int {
	strides := make([]int, len(out.Vars))
	inStride := make([]int, len(in.Vars))
	s := 1
	for i := range in.Vars {
		inStride[i] = s
		s *= in.Card[i]
	}
	for d, v := range out.Vars {
		if k := in.indexOf(v); k >= 0 {
			strides[d] = inStride[k]
		}
	}
	return strides
}

// SumOut returns the factor with variable v summed out. If v is not in f's
// scope, a clone is returned.
func (f *Factor) SumOut(v int) *Factor {
	k := f.indexOf(v)
	if k < 0 {
		return f.Clone()
	}
	vars := make([]int, 0, len(f.Vars)-1)
	cards := make([]int, 0, len(f.Vars)-1)
	for i := range f.Vars {
		if i != k {
			vars = append(vars, f.Vars[i])
			cards = append(cards, f.Card[i])
		}
	}
	out := New(vars, cards)
	inner := 1
	for i := 0; i < k; i++ {
		inner *= f.Card[i]
	}
	vCard := f.Card[k]
	outer := len(f.Data) / (inner * vCard)
	pos := 0
	for o := 0; o < outer; o++ {
		base := o * inner * vCard
		for in := 0; in < inner; in++ {
			var sum float64
			for c := 0; c < vCard; c++ {
				sum += f.Data[base+c*inner+in]
			}
			out.Data[pos] = sum
			pos++
		}
	}
	return out
}

// Restrict returns f with variable v's dimension filtered to the accept
// set: entries where v takes a value outside accept are zeroed. The scope is
// unchanged (v remains, so later factors can still bind to it). This is how
// range/IN evidence enters inference.
func (f *Factor) Restrict(v int, accept map[int32]bool) *Factor {
	k := f.indexOf(v)
	if k < 0 {
		return f.Clone()
	}
	out := f.Clone()
	inner := 1
	for i := 0; i < k; i++ {
		inner *= f.Card[i]
	}
	vCard := f.Card[k]
	outer := len(f.Data) / (inner * vCard)
	for o := 0; o < outer; o++ {
		base := o * inner * vCard
		for c := 0; c < vCard; c++ {
			if accept[int32(c)] {
				continue
			}
			row := base + c*inner
			for in := 0; in < inner; in++ {
				out.Data[row+in] = 0
			}
		}
	}
	return out
}

// Fix returns f with variable v clamped to val and removed from the scope —
// the dimension-reducing form of equality evidence. If v is not in f's
// scope, a clone is returned.
func (f *Factor) Fix(v int, val int32) *Factor {
	k := f.indexOf(v)
	if k < 0 {
		return f.Clone()
	}
	if val < 0 || int(val) >= f.Card[k] {
		panic(fmt.Sprintf("factor: Fix value %d out of range [0,%d) for var %d", val, f.Card[k], v))
	}
	vars := make([]int, 0, len(f.Vars)-1)
	cards := make([]int, 0, len(f.Vars)-1)
	for i := range f.Vars {
		if i != k {
			vars = append(vars, f.Vars[i])
			cards = append(cards, f.Card[i])
		}
	}
	out := New(vars, cards)
	inner := 1
	for i := 0; i < k; i++ {
		inner *= f.Card[i]
	}
	vCard := f.Card[k]
	outer := len(f.Data) / (inner * vCard)
	pos := 0
	for o := 0; o < outer; o++ {
		base := (o*vCard + int(val)) * inner
		copy(out.Data[pos:pos+inner], f.Data[base:base+inner])
		pos += inner
	}
	return out
}

// Sum returns the total mass of f.
func (f *Factor) Sum() float64 {
	var sum float64
	for _, v := range f.Data {
		sum += v
	}
	return sum
}

// MaxAbsDiff returns the largest absolute difference between two factors
// with identical scopes; used in tests.
func MaxAbsDiff(f, g *Factor) float64 {
	if len(f.Data) != len(g.Data) {
		panic("factor: MaxAbsDiff over different-size factors")
	}
	var m float64
	for i := range f.Data {
		m = math.Max(m, math.Abs(f.Data[i]-g.Data[i]))
	}
	return m
}
