package factor

import (
	"math/rand"
	"testing"
)

// randFactor returns a factor over the given vars/cards with random data.
func randFactor(rng *rand.Rand, vars, cards []int) *Factor {
	f := New(vars, cards)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	return f
}

// TestProductIntoMatchesProduct checks the kernel against the allocating
// product on randomized overlapping scopes, requiring bitwise equality —
// the invariant compiled plans rely on.
func TestProductIntoMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		f := randFactor(rng, []int{1, 3, 5}, []int{2, 3, 2})
		g := randFactor(rng, []int{3, 5, 7}, []int{3, 2, 4})
		want := Product(f, g)

		lStride := StrideInto(want.Vars, f.Vars, f.Card)
		rStride := StrideInto(want.Vars, g.Vars, g.Card)
		out := make([]float64, len(want.Data))
		odo := make([]int32, len(want.Vars))
		ProductInto(out, want.Card, f.Data, g.Data, lStride, rStride, odo)
		for i := range out {
			if out[i] != want.Data[i] {
				t.Fatalf("trial %d: ProductInto[%d] = %v, Product = %v", trial, i, out[i], want.Data[i])
			}
		}
	}
}

// TestSumOutIntoMatchesSumOut checks every dimension, including the
// fast-path fastest-varying one.
func TestSumOutIntoMatchesSumOut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vars := []int{2, 4, 6}
	cards := []int{3, 2, 4}
	for trial := 0; trial < 100; trial++ {
		f := randFactor(rng, vars, cards)
		for k, v := range vars {
			want := f.SumOut(v)
			inner := 1
			for i := 0; i < k; i++ {
				inner *= cards[i]
			}
			out := make([]float64, len(want.Data))
			SumOutInto(out, f.Data, inner, cards[k])
			for i := range out {
				if out[i] != want.Data[i] {
					t.Fatalf("trial %d dim %d: SumOutInto[%d] = %v, SumOut = %v", trial, k, i, out[i], want.Data[i])
				}
			}
		}
	}
}

// TestGatherIntoMatchesFixChain fixes a random subset of dimensions by
// chained Fix calls and by one fused gather, requiring bitwise equality —
// the invariant that lets compiled plans collapse a factor's whole Fix
// chain into a single copy.
func TestGatherIntoMatchesFixChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vars := []int{1, 4, 6, 9}
	cards := []int{3, 2, 4, 3}
	for trial := 0; trial < 300; trial++ {
		f := randFactor(rng, vars, cards)
		fixed := make(map[int]int32)
		for k, v := range vars {
			if rng.Intn(2) == 0 {
				fixed[v] = int32(rng.Intn(cards[k]))
			}
		}
		if len(fixed) == 0 || len(fixed) == len(vars) {
			continue // nothing to gather / scalar-lookup territory
		}

		want := f
		for _, v := range vars {
			if val, ok := fixed[v]; ok {
				want = want.Fix(v, val)
			}
		}

		// Compute base offset, block length, and block offsets the way plan
		// compilation does.
		strides := Strides(cards)
		base := 0
		var remCards, remStrides []int
		for k, v := range vars {
			if val, ok := fixed[v]; ok {
				base += int(val) * strides[k]
			} else {
				remCards = append(remCards, cards[k])
				remStrides = append(remStrides, strides[k])
			}
		}
		blockLen := 1
		j := 0
		for j < len(remCards) && remStrides[j] == blockLen {
			blockLen *= remCards[j]
			j++
		}
		nBlocks := 1
		for _, c := range remCards[j:] {
			nBlocks *= c
		}
		blockOffs := make([]int, nBlocks)
		idx := make([]int, len(remCards)-j)
		off := 0
		for b := 0; b < nBlocks; b++ {
			blockOffs[b] = off
			for d := range idx {
				idx[d]++
				off += remStrides[j+d]
				if idx[d] < remCards[j+d] {
					break
				}
				off -= remStrides[j+d] * remCards[j+d]
				idx[d] = 0
			}
		}

		out := make([]float64, blockLen*nBlocks)
		GatherInto(out, f.Data, base, blockLen, blockOffs)
		if len(out) != len(want.Data) {
			t.Fatalf("trial %d: gather size %d, fix chain size %d", trial, len(out), len(want.Data))
		}
		for i := range out {
			if out[i] != want.Data[i] {
				t.Fatalf("trial %d (fixed %v): GatherInto[%d] = %v, Fix chain = %v", trial, fixed, i, out[i], want.Data[i])
			}
		}
	}
}

func TestRestrictInPlaceMatchesRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vars := []int{0, 2, 5}
	cards := []int{3, 4, 2}
	f := randFactor(rng, vars, cards)
	for k, v := range vars {
		accept := map[int32]bool{0: true}
		if cards[k] > 2 {
			accept[2] = true
		}
		want := f.Restrict(v, accept)
		inner := 1
		for i := 0; i < k; i++ {
			inner *= cards[i]
		}
		got := append([]float64(nil), f.Data...)
		RestrictInPlace(got, inner, cards[k], accept)
		for i := range got {
			if got[i] != want.Data[i] {
				t.Fatalf("dim %d: RestrictInPlace[%d] = %v, Restrict = %v", k, i, got[i], want.Data[i])
			}
		}
	}
}

func TestStrideIntoMatchesStrideMap(t *testing.T) {
	f := New([]int{1, 3, 5}, []int{2, 3, 2})
	g := New([]int{3, 5, 7}, []int{3, 2, 4})
	out := Product(f, g)
	for _, in := range []*Factor{f, g} {
		want := strideMap(out, in)
		got := StrideInto(out.Vars, in.Vars, in.Card)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("StrideInto dim %d = %d, strideMap = %d", d, got[d], want[d])
			}
		}
	}
}

// TestKernelAllocs pins the kernels at zero allocations per call once the
// buffers exist — the property the whole plan-execution layer is built on.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randFactor(rng, []int{1, 3}, []int{4, 3})
	g := randFactor(rng, []int{3, 5}, []int{3, 4})
	outVars := []int{1, 3, 5}
	outCards := []int{4, 3, 4}
	lStride := StrideInto(outVars, f.Vars, f.Card)
	rStride := StrideInto(outVars, g.Vars, g.Card)
	out := make([]float64, 4*3*4)
	reduced := make([]float64, 3*4)
	odo := make([]int32, 3)
	accept := map[int32]bool{0: true, 2: true}
	// Fixing the innermost dimension (card 4) leaves 12 one-float blocks.
	blockOffs := make([]int, 12)
	for i := range blockOffs {
		blockOffs[i] = 4 * i
	}

	if n := testing.AllocsPerRun(100, func() {
		ProductInto(out, outCards, f.Data, g.Data, lStride, rStride, odo)
		SumOutInto(reduced, out, 1, 4)
		GatherInto(reduced, out, 2, 1, blockOffs)
		RestrictInPlace(out, 1, 4, accept)
	}); n != 0 {
		t.Fatalf("kernels allocate %v times per run, want 0", n)
	}
}

func TestPoolReuse(t *testing.T) {
	pl := NewPool(64, 8)
	s := pl.Get()
	if len(s.Slab) != 64 || len(s.Odo) != 8 {
		t.Fatalf("Get returned slab %d / odo %d", len(s.Slab), len(s.Odo))
	}
	s.Slab[0] = 42
	pl.Put(s)
	if n := testing.AllocsPerRun(100, func() {
		sc := pl.Get()
		pl.Put(sc)
	}); n != 0 {
		t.Fatalf("pooled Get/Put allocates %v times per run, want 0", n)
	}
}

func BenchmarkProductAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	f := randFactor(rng, []int{1, 3, 5}, []int{8, 6, 4})
	g := randFactor(rng, []int{3, 5, 7}, []int{6, 4, 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Product(f, g)
	}
}

func BenchmarkProductInto(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	f := randFactor(rng, []int{1, 3, 5}, []int{8, 6, 4})
	g := randFactor(rng, []int{3, 5, 7}, []int{6, 4, 8})
	out := Product(f, g)
	lStride := StrideInto(out.Vars, f.Vars, f.Card)
	rStride := StrideInto(out.Vars, g.Vars, g.Card)
	buf := make([]float64, len(out.Data))
	odo := make([]int32, len(out.Vars))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProductInto(buf, out.Card, f.Data, g.Data, lStride, rStride, odo)
	}
}

func BenchmarkSumOutFastestDim(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f := randFactor(rng, []int{1, 3, 5}, []int{8, 8, 8})
	out := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumOutInto(out, f.Data, 1, 8)
	}
}
