package queryparse

import (
	"runtime"
	"strings"
	"testing"

	"prmsel/internal/datagen"
	"prmsel/internal/dataset"
)

func tbDB(t *testing.T) *dataset.Database {
	t.Helper()
	return datagen.TB(0.05, 1)
}

func TestParseSelectJoin(t *testing.T) {
	db := tbDB(t)
	q, err := Parse(db, `FROM Contact c, Patient p
		WHERE c.Patient = p.PK AND c.Contype = roommate AND p.Age BETWEEN age6 AND age7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || len(q.Joins) != 1 || len(q.Preds) != 2 {
		t.Fatalf("shape wrong: %s", q)
	}
	if q.Joins[0].FromVar != "c" || q.Joins[0].FK != "Patient" || q.Joins[0].ToVar != "p" {
		t.Errorf("join parsed wrong: %+v", q.Joins[0])
	}
	// roommate is code 3 in the Contype domain.
	if q.Preds[0].Values[0] != 3 {
		t.Errorf("label resolution wrong: %+v", q.Preds[0])
	}
	if len(q.Preds[1].Values) != 2 {
		t.Errorf("BETWEEN expansion wrong: %+v", q.Preds[1])
	}
	// The parsed query must execute.
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
}

func TestParseValueForms(t *testing.T) {
	db := tbDB(t)
	q, err := Parse(db, `FROM Patient p WHERE p.HIV IN (positive, unknown) AND p.USBorn != true AND p.Age = #3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if !q.Preds[1].Negate {
		t.Error("!= did not negate")
	}
	if q.Preds[2].Values[0] != 3 {
		t.Error("#code form not honored")
	}
}

func TestParseNotIn(t *testing.T) {
	db := tbDB(t)
	q, err := Parse(db, `FROM Contact c WHERE c.Contype NOT IN (casual, coworker)`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Preds[0].Negate || len(q.Preds[0].Values) != 2 {
		t.Errorf("NOT IN parsed wrong: %+v", q.Preds[0])
	}
}

func TestParseNonKeyJoin(t *testing.T) {
	db := tbDB(t)
	q, err := Parse(db, `FROM Contact c, Patient p WHERE c.Age = p.Age`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.NonKeyJoins) != 1 {
		t.Fatalf("non-key joins = %d", len(q.NonKeyJoins))
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	db := tbDB(t)
	cases := []string{
		``,
		`SELECT * FROM Patient p`,
		`FROM Nope n`,
		`FROM Patient p WHERE q.Age = #1`,
		`FROM Patient p WHERE p.Nope = #1`,
		`FROM Patient p WHERE p.Age = nolabel`,
		`FROM Patient p WHERE p.Age = #99`,
		`FROM Patient p WHERE p.Age ~ #1`,
		`FROM Patient p WHERE p.Age BETWEEN age5 AND age2`,
		`FROM Patient p WHERE p.Age IN (age1`,
		`FROM Patient p WHERE p.Age IN (age1;)`,
		`FROM Patient p, Patient p`,
		`FROM Contact c, Patient p WHERE c.Nope = p.PK`,
		`FROM Patient p WHERE p.Age = #1 trailing`,
		`FROM Patient p WHERE p.Age ! #1`,
	}
	for _, text := range cases {
		if _, err := Parse(db, text); err == nil {
			t.Errorf("accepted: %s", text)
		}
	}
}

// TestParseErrorPositions pins the position reporting the HTTP service
// relies on: every malformed input yields a *ParseError whose offset and
// nearest token identify the problem.
func TestParseErrorPositions(t *testing.T) {
	db := tbDB(t)
	cases := []struct {
		name    string
		text    string
		offset  int
		near    string
		msgPart string
	}{
		{"empty input", ``, 0, "", "end of input"},
		{"not a FROM", `SELECT * FROM Patient p`, 0, "SELECT", `expected "FROM"`},
		{"unknown table", `FROM Nope n`, 5, "Nope", "unknown table"},
		{"unknown alias", `FROM Patient p WHERE q.Age = #1`, 21, "q", "unknown alias"},
		{"unknown attribute", `FROM Patient p WHERE p.Nope = #1`, 30, "#1", "no attribute"},
		{"unknown label", `FROM Patient p WHERE p.Age = nolabel`, 29, "nolabel", "nolabel"},
		{"code out of range", `FROM Patient p WHERE p.Age = #99`, 29, "#99", "bad value code"},
		{"unknown operator", `FROM Patient p WHERE p.Age ~ #1`, 27, "~", "unknown operator"},
		{"inverted between", `FROM Patient p WHERE p.Age BETWEEN age5 AND age2`, 44, "age2", "inverted"},
		{"unterminated list", `FROM Patient p WHERE p.Age IN (age1`, 35, "", "unterminated"},
		{"duplicate alias", `FROM Patient p, Patient p`, 24, "p", "duplicate alias"},
		{"missing fk", `FROM Contact c, Patient p WHERE c.Nope = p.PK`, 43, "PK", "no foreign key"},
		{"fk to another table", `FROM Contact c WHERE c.Patient = c.PK`, 35, "PK", "references Patient, not Contact"},
		{"trailing input", `FROM Patient p WHERE p.Age = #1 trailing`, 32, "trailing", "trailing"},
		{"stray bang", `FROM Patient p WHERE p.Age ! #1`, 27, "!", "stray"},
		{"missing value", `FROM Patient p WHERE p.Age =`, 28, "", "missing value"},
		{"half reference", `FROM Patient p WHERE p.`, 23, "", "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(db, tc.text)
			if err == nil {
				t.Fatalf("accepted: %s", tc.text)
			}
			pe := AsParseError(err)
			if pe == nil {
				t.Fatalf("error is not a *ParseError: %v", err)
			}
			if pe.Offset != tc.offset {
				t.Errorf("offset = %d, want %d (err: %v)", pe.Offset, tc.offset, err)
			}
			if pe.Near != tc.near {
				t.Errorf("near = %q, want %q (err: %v)", pe.Near, tc.near, err)
			}
			if !strings.Contains(err.Error(), tc.msgPart) {
				t.Errorf("message %q missing %q", err.Error(), tc.msgPart)
			}
		})
	}
}

func TestParseRoundTripAgainstStringForm(t *testing.T) {
	// A parsed query's rendered form must re-express the same clauses (by
	// count and operator).
	db := tbDB(t)
	q, err := Parse(db, `FROM Contact c, Patient p, Strain s
		WHERE c.Patient = p.PK AND p.Strain = s.PK AND s.Unique = false AND c.Infected != false`)
	if err != nil {
		t.Fatal(err)
	}
	rendered := q.String()
	for _, want := range []string{"c.Patient = p.PK", "p.Strain = s.PK", "s.Unique = 0", "c.Infected != 0"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered %q missing %q", rendered, want)
		}
	}
}

// TestParseLongQuery: a 72-token query parses every clause, and
// reordering its clauses leaves the canonical key unchanged.
func TestParseLongQuery(t *testing.T) {
	db := tbDB(t)
	clauses := []string{
		"c.Patient = p.PK", "p.Strain = s.PK",
		"c.Contype IN (roommate, casual, coworker)", "c.Infected != false",
		"p.Age BETWEEN age2 AND age5", "p.HIV NOT IN (unknown)",
		"p.USBorn = true", "s.Unique = false",
	}
	text := func(order []string) string {
		return "FROM Contact c, Patient p, Strain s WHERE " + strings.Join(order, " AND ")
	}
	q, err := Parse(db, text(clauses))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 3 || len(q.Joins) != 2 || len(q.Preds) != 6 {
		t.Fatalf("shape wrong: %s", q)
	}
	reordered := make([]string, len(clauses))
	for i, c := range clauses {
		reordered[len(clauses)-1-i] = c
	}
	r, err := Parse(db, text(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if q.CanonicalKey() != r.CanonicalKey() {
		t.Errorf("reordered clauses keyed differently:\n%s\n%s", q.CanonicalKey(), r.CanonicalKey())
	}
}

// TestParseANDFlood: a query of nothing but ANDs after WHERE, as long as
// the service's default 1 MiB body admits, fails at its first clause
// without allocating in proportion to its length.
func TestParseANDFlood(t *testing.T) {
	db := datagen.Census(200, 1)
	text := "FROM Census c WHERE " + strings.Repeat("AND ", 1<<18)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse(db, text); err == nil {
			t.Fatal("an AND flood parsed")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 16<<10 {
		t.Errorf("a failing %d-byte parse allocated %d bytes, want <= 16 KiB", len(text), perCall)
	}
}

// censusQuery is a three-predicate point query over the Census table, the
// shape of the served benchmark's cache hits.
const censusQuery = `FROM Census c WHERE c.Age = age3 AND c.Sex = sex0 AND c.Income = inc1`

// parseAllocs pins the allocations of parsing censusQuery with go1.24:
// the query, its variable map (header and first group), the predicate
// list, and one value slice per predicate. Tokens are lexed one at a time
// and name the input by offset, so a per-token string or a token slice
// fails TestParseAllocs.
const parseAllocs = 7

// TestParseAllocs guards the parse step of every served estimate.
func TestParseAllocs(t *testing.T) {
	db := datagen.Census(200, 1)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(db, censusQuery); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseAllocs {
		t.Errorf("Parse allocates %v times per call, want <= %d", allocs, parseAllocs)
	}
	t.Logf("Parse: %v allocs per call (pinned at %d)", allocs, parseAllocs)
}

// BenchmarkParse parses censusQuery and reports its allocations next to
// TestParseAllocs' pin.
func BenchmarkParse(b *testing.B) {
	db := datagen.Census(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(db, censusQuery); err != nil {
			b.Fatal(err)
		}
	}
}
