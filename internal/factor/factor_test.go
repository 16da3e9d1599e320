package factor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomFactor builds a random factor over a random subset of variables
// {0..4} with cards 2..4 and entries in [0,1).
func randomFactor(rng *rand.Rand, cards map[int]int) *Factor {
	var vars []int
	var vc []int
	for v := 0; v < 5; v++ {
		if rng.Intn(2) == 0 {
			vars = append(vars, v)
			vc = append(vc, cards[v])
		}
	}
	if len(vars) == 0 {
		return Scalar(rng.Float64())
	}
	f := New(vars, vc)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	return f
}

func sharedCards(rng *rand.Rand) map[int]int {
	cards := make(map[int]int)
	for v := 0; v < 5; v++ {
		cards[v] = 2 + rng.Intn(3)
	}
	return cards
}

// bruteAt evaluates a factor at a full assignment over variables 0..4 by
// projecting the assignment onto the factor's scope.
func bruteAt(f *Factor, full []int32) float64 {
	if f.IsScalar() {
		return f.Data[0]
	}
	a := make([]int32, len(f.Vars))
	for i, v := range f.Vars {
		a[i] = full[v]
	}
	return f.At(a)
}

func forEachAssignment(cards map[int]int, fn func(full []int32)) {
	full := make([]int32, 5)
	var rec func(v int)
	rec = func(v int) {
		if v == 5 {
			fn(full)
			return
		}
		for x := 0; x < cards[v]; x++ {
			full[v] = int32(x)
			rec(v + 1)
		}
	}
	rec(0)
}

func TestProductMatchesPointwise(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		g := randomFactor(rng, cards)
		p := Product(f, g)
		ok := true
		forEachAssignment(cards, func(full []int32) {
			want := bruteAt(f, full) * bruteAt(g, full)
			got := bruteAt(p, full)
			if math.Abs(want-got) > 1e-12 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProductCommutative(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		g := randomFactor(rng, cards)
		p1, p2 := Product(f, g), Product(g, f)
		if !reflect.DeepEqual(p1.Vars, p2.Vars) {
			return false
		}
		return MaxAbsDiff(p1, p2) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSumOutMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		if f.IsScalar() {
			return true
		}
		v := f.Vars[rng.Intn(len(f.Vars))]
		s := f.SumOut(v)
		ok := true
		forEachAssignment(cards, func(full []int32) {
			var want float64
			for x := 0; x < cards[v]; x++ {
				full2 := append([]int32(nil), full...)
				full2[v] = int32(x)
				want += bruteAt(f, full2)
			}
			if math.Abs(want-bruteAt(s, full)) > 1e-10 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSumOutOrderIndependent(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		if len(f.Vars) < 2 {
			return true
		}
		a, b := f.Vars[0], f.Vars[1]
		s1 := f.SumOut(a).SumOut(b)
		s2 := f.SumOut(b).SumOut(a)
		return MaxAbsDiff(s1, s2) < 1e-10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictZeroesRejectedValues(t *testing.T) {
	f := New([]int{2, 7}, []int{3, 2})
	for i := range f.Data {
		f.Data[i] = float64(i + 1)
	}
	r := f.Restrict(2, map[int32]bool{1: true})
	for x := int32(0); x < 3; x++ {
		for y := int32(0); y < 2; y++ {
			got := r.At([]int32{x, y})
			if x == 1 {
				if got != f.At([]int32{x, y}) {
					t.Errorf("accepted value changed at (%d,%d)", x, y)
				}
			} else if got != 0 {
				t.Errorf("rejected value not zeroed at (%d,%d): %v", x, y, got)
			}
		}
	}
}

func TestRestrictThenSumEqualsSubsetMass(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		if f.IsScalar() {
			return true
		}
		v := f.Vars[0]
		accept := map[int32]bool{0: true}
		restricted := f.Restrict(v, accept)
		// Mass of restricted == sum over entries with v=0.
		var want float64
		forEachAssignment(cards, func(full []int32) {
			if full[v] == 0 {
				want += bruteAt(f, full)
			}
		})
		scale := 1.0
		for w, c := range cards {
			if f.indexOf(w) < 0 {
				scale *= float64(c) // unconstrained dims in the brute loop
			}
		}
		// bruteAt repeats each factor entry once per assignment of the
		// variables outside its scope (except v itself is in scope).
		return math.Abs(want/scale-restricted.Sum()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarProduct(t *testing.T) {
	f := New([]int{1}, []int{2})
	f.Data[0], f.Data[1] = 0.25, 0.75
	p := Product(Scalar(2), f)
	if p.At([]int32{0}) != 0.5 || p.At([]int32{1}) != 1.5 {
		t.Fatalf("scalar product wrong: %v", p.Data)
	}
}

func TestNewPanicsOnDuplicateVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate variables")
		}
	}()
	New([]int{1, 1}, []int{2, 2})
}

func TestProductPanicsOnCardMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cardinality mismatch")
		}
	}()
	Product(New([]int{0}, []int{2}), New([]int{0}, []int{3}))
}

func TestAtSetRoundTrip(t *testing.T) {
	f := New([]int{3, 1, 8}, []int{2, 3, 4})
	f.Set([]int32{2, 1, 3}, 0.5) // aligned with sorted vars {1,3,8}
	if got := f.At([]int32{2, 1, 3}); got != 0.5 {
		t.Fatalf("At after Set = %v, want 0.5", got)
	}
	var nonZero int
	for _, v := range f.Data {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("Set touched %d entries, want 1", nonZero)
	}
}

// TestProductSizePredictsProduct checks that ProductSize reports exactly
// the scope width and table size Product would allocate, across random
// factor pairs — it is the pre-allocation check resource-guarded
// elimination relies on.
func TestProductSizePredictsProduct(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cards := sharedCards(rng)
		f := randomFactor(rng, cards)
		g := randomFactor(rng, cards)
		width, cells := ProductSize(f, g)
		p := Product(f, g)
		return width == len(p.Vars) && cells == p.Size()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProductSizeScalars(t *testing.T) {
	s := Scalar(2)
	f := New([]int{0, 1}, []int{3, 4})
	if w, c := ProductSize(s, f); w != 2 || c != 12 {
		t.Fatalf("ProductSize(scalar, f) = (%d, %d), want (2, 12)", w, c)
	}
	if w, c := ProductSize(s, s); w != 0 || c != 1 {
		t.Fatalf("ProductSize(scalar, scalar) = (%d, %d), want (0, 1)", w, c)
	}
}
