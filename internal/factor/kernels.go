package factor

import (
	"fmt"
	"sync"
)

// This file holds the allocation-light kernels behind compiled query plans
// (internal/bayesnet.Plan): the same arithmetic as Product/SumOut/Fix/
// Restrict, but writing into caller-provided buffers with every scope,
// stride map, and dimension index precomputed at plan-compile time. The
// kernels iterate in exactly the same order as their allocating
// counterparts, so a compiled execution is bit-for-bit identical to the
// plan-free path.

// Strides returns the data stride of each dimension of a factor with the
// given cardinalities (dimension 0 fastest-varying, as everywhere in this
// package).
func Strides(cards []int) []int {
	strides := make([]int, len(cards))
	s := 1
	for i, c := range cards {
		strides[i] = s
		s *= c
	}
	return strides
}

// StrideInto returns, for each dimension of the output scope outVars/
// outCards, the stride of a table over inVars along that dimension (0 when
// the variable is absent). Both var lists must be sorted ascending. It is
// strideMap with the scopes made explicit, for plan compilation where no
// *Factor exists yet.
func StrideInto(outVars []int, inVars, inCards []int) []int {
	strides := make([]int, len(outVars))
	inStride := Strides(inCards)
	j := 0
	for d, v := range outVars {
		for j < len(inVars) && inVars[j] < v {
			j++
		}
		if j < len(inVars) && inVars[j] == v {
			strides[d] = inStride[j]
		}
	}
	return strides
}

// ProductInto computes the pointwise product of two tables into out, which
// must already be sized to the output scope (len(out) = Π outCards).
// lStride/rStride are the inputs' strides along each output dimension (see
// StrideInto), and odo is caller scratch of len(outCards) used as the
// mixed-radix odometer. The iteration order matches Product exactly.
func ProductInto(out []float64, outCards []int, l, r []float64, lStride, rStride []int, odo []int32) {
	for d := range odo[:len(outCards)] {
		odo[d] = 0
	}
	lOff, rOff := 0, 0
	for pos := range out {
		out[pos] = l[lOff] * r[rOff]
		for d := 0; d < len(outCards); d++ {
			odo[d]++
			lOff += lStride[d]
			rOff += rStride[d]
			if int(odo[d]) < outCards[d] {
				break
			}
			odo[d] = 0
			lOff -= lStride[d] * outCards[d]
			rOff -= rStride[d] * outCards[d]
		}
	}
}

// SumOutInto sums the dimension with the given inner stride and
// cardinality out of src, writing the reduced table into out
// (len(out) = len(src)/card). inner is the product of the cardinalities
// below the summed dimension; the summation order matches SumOut exactly.
// When the summed dimension is the fastest-varying one (inner == 1) the
// inner loop degenerates to a contiguous scan, which is the fast path
// compiled plans arrange for by preferring low dimensions where the
// schedule allows.
func SumOutInto(out, src []float64, inner, card int) {
	if inner == 1 {
		// Fast path: contiguous blocks of card values reduce to one cell.
		pos := 0
		for base := 0; base < len(src); base += card {
			var sum float64
			for c := 0; c < card; c++ {
				sum += src[base+c]
			}
			out[pos] = sum
			pos++
		}
		return
	}
	outer := len(src) / (inner * card)
	pos := 0
	for o := 0; o < outer; o++ {
		base := o * inner * card
		for in := 0; in < inner; in++ {
			var sum float64
			for c := 0; c < card; c++ {
				sum += src[base+c*inner+in]
			}
			out[pos] = sum
			pos++
		}
	}
}

// GatherInto copies the elements of src surviving a whole chain of Fixes
// into out in one pass: blockOffs lists the evidence-independent source
// offset of each blockLen-long contiguous run, and base shifts them all by
// the evidence values' combined offset. Chaining Fix once per clamped
// dimension copies the same surviving elements through len(chain)-1
// intermediate tables; the gather is the chain's fused form and produces
// byte-identical output, without allocating.
func GatherInto(out, src []float64, base, blockLen int, blockOffs []int) {
	pos := 0
	for _, off := range blockOffs {
		copy(out[pos:pos+blockLen], src[base+off:base+off+blockLen])
		pos += blockLen
	}
}

// RestrictInPlace zeroes the rows of data where the dimension with the
// given inner stride and cardinality takes a value outside accept. The
// scope is unchanged, matching Restrict (minus its clone).
func RestrictInPlace(data []float64, inner, card int, accept map[int32]bool) {
	outer := len(data) / (inner * card)
	for o := 0; o < outer; o++ {
		base := o * inner * card
		for c := 0; c < card; c++ {
			if accept[int32(c)] {
				continue
			}
			row := base + c*inner
			for in := 0; in < inner; in++ {
				data[row+in] = 0
			}
		}
	}
}

// Pool is a sync.Pool-backed arena for the float64 slabs compiled plans
// execute in. Each plan owns one Pool sized to its slab, so a Get after
// the first execution is a pointer swap, not an allocation; the int32
// odometer scratch rides along in the same object.
type Pool struct {
	floats int
	ints   int
	p      sync.Pool
}

// Scratch is one pooled execution arena: a float64 slab plans slice into
// regions, and an int32 odometer for ProductInto.
type Scratch struct {
	Slab []float64
	Odo  []int32
}

// NewPool returns a pool of scratches with a floats-long slab and an
// ints-long odometer.
func NewPool(floats, ints int) *Pool {
	if floats < 0 || ints < 0 {
		panic(fmt.Sprintf("factor: NewPool(%d, %d)", floats, ints))
	}
	pl := &Pool{floats: floats, ints: ints}
	pl.p.New = func() any {
		return &Scratch{
			Slab: make([]float64, pl.floats),
			Odo:  make([]int32, pl.ints),
		}
	}
	return pl
}

// Get returns a scratch whose slab and odometer are at least the pool's
// configured sizes. Contents are arbitrary; every kernel writes its full
// output, so no zeroing is needed.
func (pl *Pool) Get() *Scratch { return pl.p.Get().(*Scratch) }

// Put returns a scratch to the pool.
func (pl *Pool) Put(s *Scratch) { pl.p.Put(s) }
