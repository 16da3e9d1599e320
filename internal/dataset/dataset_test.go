package dataset

import (
	"testing"

	"prmsel/internal/query"
)

// tinyDB builds a two-table database: Owner (2 rows) and Pet (4 rows with a
// FK to Owner), small enough to verify counts by hand.
func tinyDB(t *testing.T) *Database {
	t.Helper()
	owner := NewTable(Schema{
		Name: "Owner",
		Attributes: []Attribute{
			{Name: "City", Values: []string{"sf", "la"}},
			{Name: "Income", Values: []string{"low", "high"}},
		},
	})
	owner.MustAppendRow([]int32{0, 1}, nil) // row 0: sf, high
	owner.MustAppendRow([]int32{1, 0}, nil) // row 1: la, low

	pet := NewTable(Schema{
		Name: "Pet",
		Attributes: []Attribute{
			{Name: "Species", Values: []string{"cat", "dog"}},
		},
		ForeignKeys: []ForeignKey{{Name: "Owner", To: "Owner"}},
	})
	pet.MustAppendRow([]int32{0}, []int32{0}) // cat, owner 0
	pet.MustAppendRow([]int32{1}, []int32{0}) // dog, owner 0
	pet.MustAppendRow([]int32{1}, []int32{0}) // dog, owner 0
	pet.MustAppendRow([]int32{0}, []int32{1}) // cat, owner 1

	db := NewDatabase()
	for _, tbl := range []*Table{owner, pet} {
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAppendRowValidation(t *testing.T) {
	tbl := NewTable(Schema{Name: "T", Attributes: []Attribute{{Name: "A", Values: []string{"x", "y"}}}})
	if err := tbl.AppendRow([]int32{2}, nil); err == nil {
		t.Error("out-of-domain code accepted")
	}
	if err := tbl.AppendRow([]int32{0, 1}, nil); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.AppendRow([]int32{1}, []int32{0}); err == nil {
		t.Error("unexpected fk ref accepted")
	}
	if err := tbl.AppendRow([]int32{1}, nil); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestValidateCatchesBrokenReference(t *testing.T) {
	db := tinyDB(t)
	pet := db.Table("Pet")
	pet.fks[0][0] = 99
	if err := db.Validate(); err == nil {
		t.Error("dangling foreign key not caught")
	}
}

func TestValidateCatchesUnknownTable(t *testing.T) {
	db := NewDatabase()
	tbl := NewTable(Schema{
		Name:        "T",
		Attributes:  []Attribute{{Name: "A", Values: []string{"x"}}},
		ForeignKeys: []ForeignKey{{Name: "F", To: "Missing"}},
	})
	tbl.MustAppendRow([]int32{0}, []int32{0})
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err == nil {
		t.Error("reference to missing table not caught")
	}
}

func TestStratification(t *testing.T) {
	db := tinyDB(t)
	order, err := db.Stratification()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["Owner"] > pos["Pet"] {
		t.Errorf("Owner must precede Pet in stratification, got %v", order)
	}
}

func TestStratificationDetectsCycle(t *testing.T) {
	db := NewDatabase()
	a := NewTable(Schema{Name: "A", ForeignKeys: []ForeignKey{{Name: "F", To: "B"}}})
	b := NewTable(Schema{Name: "B", ForeignKeys: []ForeignKey{{Name: "G", To: "A"}}})
	if err := db.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Stratification(); err == nil {
		t.Error("cyclic schema accepted")
	}
}

func TestCountSingleTable(t *testing.T) {
	db := tinyDB(t)
	q := query.New().Over("p", "Pet").WhereEq("p", "Species", 1)
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("dogs = %d, want 2", n)
	}
}

func TestCountRangePredicate(t *testing.T) {
	db := tinyDB(t)
	q := query.New().Over("p", "Pet").Where("p", "Species", 0, 1)
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("all species = %d, want 4", n)
	}
}

func TestCountJoin(t *testing.T) {
	db := tinyDB(t)
	// Dogs of high-income owners: rows 1,2 join owner 0 (high) -> 2.
	q := query.New().
		Over("p", "Pet").Over("o", "Owner").
		KeyJoin("p", "Owner", "o").
		WhereEq("p", "Species", 1).
		WhereEq("o", "Income", 1)
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("dogs of high-income owners = %d, want 2", n)
	}
}

func TestCountJoinNoSelect(t *testing.T) {
	db := tinyDB(t)
	q := query.New().Over("p", "Pet").Over("o", "Owner").KeyJoin("p", "Owner", "o")
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("join size = %d, want 4 (referential integrity)", n)
	}
}

func TestCountCrossProduct(t *testing.T) {
	db := tinyDB(t)
	q := query.New().Over("p", "Pet").Over("o", "Owner")
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("cross product = %d, want 8", n)
	}
}

func TestCountJoinReverseVarOrder(t *testing.T) {
	// Variable names chosen so the referenced variable sorts first,
	// exercising the determinedBy path, and vice versa.
	db := tinyDB(t)
	for _, names := range [][2]string{{"a", "z"}, {"z", "a"}} {
		q := query.New().
			Over(names[0], "Pet").Over(names[1], "Owner").
			KeyJoin(names[0], "Owner", names[1]).
			WhereEq(names[1], "City", 0)
		n, err := db.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Errorf("pets of sf owners (%v) = %d, want 3", names, n)
		}
	}
}

func TestCountErrors(t *testing.T) {
	db := tinyDB(t)
	cases := []*query.Query{
		query.New().Over("p", "Nope"),
		query.New().Over("p", "Pet").WhereEq("p", "Nope", 0),
		query.New().Over("p", "Pet").WhereEq("p", "Species", 9),
		query.New().Over("p", "Pet").Over("o", "Owner").KeyJoin("p", "Nope", "o"),
		query.New().Over("p", "Pet").Over("o", "Pet").KeyJoin("p", "Owner", "o"),
	}
	for i, q := range cases {
		if _, err := db.Count(q); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestJointCountsMatchesPerQueryCounts(t *testing.T) {
	db := tinyDB(t)
	skeleton := query.New().Over("p", "Pet").Over("o", "Owner").KeyJoin("p", "Owner", "o")
	targets := []query.Target{{Var: "p", Attr: "Species"}, {Var: "o", Attr: "Income"}}
	cont, err := db.JointCounts(skeleton, targets)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Total() != 4 {
		t.Fatalf("total = %d, want 4", cont.Total())
	}
	for s := int32(0); s < 2; s++ {
		for inc := int32(0); inc < 2; inc++ {
			q := skeleton.Clone().WhereEq("p", "Species", s).WhereEq("o", "Income", inc)
			want, err := db.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := cont.Count([]int32{s, inc}); got != want {
				t.Errorf("cell (%d,%d) = %d, want %d", s, inc, got, want)
			}
		}
	}
}

func TestJointCountsRejectsDisconnected(t *testing.T) {
	db := tinyDB(t)
	skeleton := query.New().Over("p", "Pet").Over("o", "Owner")
	if _, err := db.JointCounts(skeleton, nil); err == nil {
		t.Error("disconnected skeleton accepted")
	}
}

func TestAttrCounts(t *testing.T) {
	db := tinyDB(t)
	counts := db.Table("Pet").AttrCounts(0)
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("AttrCounts = %v, want [2 2]", counts)
	}
}

func TestCountNonKeyJoin(t *testing.T) {
	db := tinyDB(t)
	// Pet.Species = Owner.City (codes compared): pairs where species code
	// equals city code. Owners: city codes {0,1}; pets: species {0,1,1,0}.
	q := query.New().
		Over("p", "Pet").Over("o", "Owner").
		NonKeyJoinOn("p", "Species", "o", "City")
	got, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	pet, owner := db.Table("Pet"), db.Table("Owner")
	var want int64
	for r := 0; r < pet.Len(); r++ {
		for s := 0; s < owner.Len(); s++ {
			if pet.Value(r, 0) == owner.Value(s, 0) {
				want++
			}
		}
	}
	if got != want {
		t.Errorf("non-key join count = %d, want %d", got, want)
	}
}

func TestCountNonKeyJoinWithKeyJoin(t *testing.T) {
	db := tinyDB(t)
	// Pets joined to their owner where species code equals city code.
	q := query.New().
		Over("p", "Pet").Over("o", "Owner").
		KeyJoin("p", "Owner", "o").
		NonKeyJoinOn("p", "Species", "o", "City")
	got, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	pet, owner := db.Table("Pet"), db.Table("Owner")
	var want int64
	for r := 0; r < pet.Len(); r++ {
		o := pet.FKCol(0)[r]
		if pet.Value(r, 0) == owner.Value(int(o), 0) {
			want++
		}
	}
	if got != want {
		t.Errorf("mixed join count = %d, want %d", got, want)
	}
}

func TestCountNonKeyJoinErrors(t *testing.T) {
	db := tinyDB(t)
	q := query.New().
		Over("p", "Pet").Over("o", "Owner").
		NonKeyJoinOn("p", "Nope", "o", "City")
	if _, err := db.Count(q); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestAppendRowLabelsAndCode(t *testing.T) {
	tbl := NewTable(Schema{
		Name:       "T",
		Attributes: []Attribute{{Name: "Color", Values: []string{"red", "blue"}}},
	})
	if err := tbl.AppendRowLabels([]string{"blue"}, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Value(0, 0) != 1 {
		t.Errorf("label append stored code %d, want 1", tbl.Value(0, 0))
	}
	if err := tbl.AppendRowLabels([]string{"green"}, nil); err == nil {
		t.Error("unknown label accepted")
	}
	if err := tbl.AppendRowLabels([]string{"a", "b"}, nil); err == nil {
		t.Error("wrong arity accepted")
	}
	code, err := tbl.Code("Color", "red")
	if err != nil || code != 0 {
		t.Errorf("Code = %d, %v", code, err)
	}
	if _, err := tbl.Code("Color", "green"); err == nil {
		t.Error("unknown label code accepted")
	}
	if _, err := tbl.Code("Nope", "red"); err == nil {
		t.Error("unknown attribute accepted")
	}
}
