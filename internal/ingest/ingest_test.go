package ingest

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
	"prmsel/internal/query"
	"prmsel/internal/store"
)

// testDB builds a two-table database: Person(Income, Owner) referenced by
// Purchase(Amount) through Buyer.
func testDB(t testing.TB, nPeople, nPurch int, seed int64) *dataset.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	person := dataset.NewTable(dataset.Schema{
		Name: "Person",
		Attributes: []dataset.Attribute{
			{Name: "Income", Values: []string{"low", "high"}},
			{Name: "Owner", Values: []string{"no", "yes"}},
		},
	})
	for i := 0; i < nPeople; i++ {
		person.MustAppendRow([]int32{int32(rng.Intn(2)), int32(rng.Intn(2))}, nil)
	}
	purch := dataset.NewTable(dataset.Schema{
		Name: "Purchase",
		Attributes: []dataset.Attribute{
			{Name: "Amount", Values: []string{"small", "large"}},
		},
		ForeignKeys: []dataset.ForeignKey{{Name: "Buyer", To: "Person"}},
	})
	for i := 0; i < nPurch; i++ {
		purch.MustAppendRow([]int32{int32(rng.Intn(2))}, []int32{int32(rng.Intn(nPeople))})
	}
	db := dataset.NewDatabase()
	for _, tbl := range []*dataset.Table{person, purch} {
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func learnModel(t testing.TB, db *dataset.Database) *core.PRM {
	t.Helper()
	m, err := core.Learn(db, core.Config{
		Fit:    learn.FitConfig{Kind: learn.Tree},
		Search: learn.Options{Criterion: learn.SSN, BudgetBytes: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openTestWAL(t testing.TB, dir string) *store.WAL {
	t.Helper()
	w, _, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func newIngestor(t testing.TB, cfg Config) *Ingestor {
	t.Helper()
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	return ing
}

// randRows draws valid rows against the current staging sizes, including
// intra-batch references.
func randRows(rng *rand.Rand, nPeople int, n int) []Row {
	var out []Row
	people := nPeople
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			out = append(out, Row{Table: "Person", Attrs: []int32{int32(rng.Intn(2)), int32(rng.Intn(2))}})
			people++
		} else {
			out = append(out, Row{Table: "Purchase", Attrs: []int32{int32(rng.Intn(2))}, FKs: []int32{int32(rng.Intn(people))}})
		}
	}
	return out
}

func TestIngestValidation(t *testing.T) {
	db := testDB(t, 20, 40, 1)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	ing := newIngestor(t, Config{Model: m, DB: db, WAL: w, RefitRows: -1})

	cases := map[string][]Row{
		"unknown table":  {{Table: "Nope", Attrs: []int32{0}}},
		"attr arity":     {{Table: "Person", Attrs: []int32{0}}},
		"fk arity":       {{Table: "Purchase", Attrs: []int32{0}}},
		"attr domain":    {{Table: "Person", Attrs: []int32{0, 9}}},
		"fk range":       {{Table: "Purchase", Attrs: []int32{0}, FKs: []int32{99}}},
		"fk negative":    {{Table: "Purchase", Attrs: []int32{0}, FKs: []int32{-1}}},
		"fk future self": {{Table: "Purchase", Attrs: []int32{0}, FKs: []int32{20}}},
	}
	for name, rows := range cases {
		if _, err := ing.Ingest(rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if w.LastSeq() != 0 {
		t.Fatalf("rejected batches reached the WAL: last seq %d", w.LastSeq())
	}
	// A parent and its child in one batch: the child may reference the
	// parent's future row index.
	batch := []Row{
		{Table: "Person", Attrs: []int32{1, 1}},
		{Table: "Purchase", Attrs: []int32{1}, FKs: []int32{20}}, // the row above
	}
	if _, err := ing.Ingest(batch); err != nil {
		t.Fatalf("intra-batch reference rejected: %v", err)
	}
	if db.Table("Person").Len() != 21 || db.Table("Purchase").Len() != 41 {
		t.Fatalf("batch not applied: %d/%d rows", db.Table("Person").Len(), db.Table("Purchase").Len())
	}
}

func TestIngestBacklogAdmission(t *testing.T) {
	db := testDB(t, 20, 40, 2)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	ing := newIngestor(t, Config{Model: m, DB: db, WAL: w, RefitRows: -1, MaxPending: 3})

	row := Row{Table: "Person", Attrs: []int32{0, 0}}
	for i := 0; i < 3; i++ {
		if _, err := ing.Ingest([]Row{row}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if _, err := ing.Ingest([]Row{row}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("full backlog returned %v, want ErrBacklog", err)
	}
	// A successful refit drains the backlog.
	if err := ing.Refit("test"); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Ingest([]Row{row}); err != nil {
		t.Fatalf("ingest after refit: %v", err)
	}
}

// TestRefitPublishesConsistentClone: the publication carries an immutable
// database clone at the refit watermark, and its model estimates match a
// scratch scan-refit over the same rows bit-for-bit.
func TestRefitPublishesConsistentClone(t *testing.T) {
	db := testDB(t, 60, 200, 3)
	m := learnModel(t, db)

	// An independent structural copy refit by full rescan, for comparison.
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	scratch, err := core.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	refDB := testDB(t, 60, 200, 3) // same seed: identical base rows

	w := openTestWAL(t, t.TempDir())
	var pubs []Publication
	ing := newIngestor(t, Config{
		Model: m, DB: db, WAL: w, RefitRows: -1,
		Publish: func(p Publication) error { pubs = append(pubs, p); return nil },
	})

	rng := rand.New(rand.NewSource(9))
	rows := randRows(rng, 60, 300)
	var acked int
	for i := 0; i < len(rows); i += 32 {
		end := i + 32
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := ing.Ingest(rows[i:end]); err != nil {
			t.Fatal(err)
		}
		acked += end - i
	}
	for _, r := range rows {
		if err := refDB.Table(r.Table).AppendRow(r.Attrs, r.FKs); err != nil {
			t.Fatal(err)
		}
	}

	if err := ing.Refit("test"); err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 1 {
		t.Fatalf("%d publications, want 1", len(pubs))
	}
	pub := pubs[0]
	if pub.Trigger != "test" || pub.Rows != int64(acked) || pub.Watermark != w.LastSeq() {
		t.Fatalf("publication = %+v (acked %d, last seq %d)", pub, acked, w.LastSeq())
	}
	if pending, _, published := ing.Pending(); pending != 0 || published != pub.Watermark {
		t.Fatalf("after refit: pending %d published %d", pending, published)
	}
	// The clone is immutable: later ingests must not grow it.
	cloneRows := pub.DB.Rows()
	if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if pub.DB.Rows() != cloneRows {
		t.Fatal("published clone grew with later ingest")
	}

	if err := scratch.RefitParameters(refDB); err != nil {
		t.Fatal(err)
	}
	queries := []*query.Query{
		query.New().Over("p", "Person").WhereEq("p", "Income", 1),
		query.New().Over("u", "Purchase").WhereEq("u", "Amount", 1),
		query.New().Over("u", "Purchase").Over("p", "Person").
			KeyJoin("u", "Buyer", "p").WhereEq("p", "Income", 1).WhereEq("u", "Amount", 1),
	}
	for i, q := range queries {
		a, err := pub.Model.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scratch.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: delta-refit estimate %v != scan-refit %v", i, a, b)
		}
	}
}

func TestRefitNoOpWhenNothingPending(t *testing.T) {
	db := testDB(t, 20, 40, 4)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	calls := 0
	ing := newIngestor(t, Config{
		Model: m, DB: db, WAL: w, RefitRows: -1,
		Publish: func(Publication) error { calls++; return nil },
	})
	if err := ing.Refit("idle"); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("idle refit published %d times", calls)
	}
}

func TestRefitRowThresholdTriggers(t *testing.T) {
	db := testDB(t, 20, 40, 5)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	done := make(chan Publication, 4)
	ing := newIngestor(t, Config{
		Model: m, DB: db, WAL: w, RefitRows: 8,
		Publish: func(p Publication) error { done <- p; return nil },
	})
	for i := 0; i < 8; i++ {
		if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{0, 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-done:
		if p.Trigger != "rows" {
			t.Fatalf("trigger = %q, want rows", p.Trigger)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("row threshold never triggered a refit")
	}
}

func TestRefitIntervalTriggers(t *testing.T) {
	db := testDB(t, 20, 40, 5)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	done := make(chan Publication, 4)
	ing := newIngestor(t, Config{
		Model: m, DB: db, WAL: w, RefitRows: -1, RefitInterval: 20 * time.Millisecond,
		Publish: func(p Publication) error { done <- p; return nil },
	})
	if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-done:
		if p.Trigger != "interval" {
			t.Fatalf("trigger = %q, want interval", p.Trigger)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("refit interval never triggered a refit")
	}
}

func TestSkipRefitDefers(t *testing.T) {
	db := testDB(t, 20, 40, 6)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	var mu sync.Mutex
	skip := true
	calls := 0
	ing := newIngestor(t, Config{
		Model: m, DB: db, WAL: w, RefitRows: -1,
		SkipRefit: func() bool { mu.Lock(); defer mu.Unlock(); return skip },
		Publish:   func(Publication) error { mu.Lock(); defer mu.Unlock(); calls++; return nil },
	})
	if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Refit("blocked"); !errors.Is(err, ErrRefitDeferred) {
		t.Fatalf("Refit while blocked = %v, want ErrRefitDeferred", err)
	}
	mu.Lock()
	c := calls
	skip = false
	mu.Unlock()
	if c != 0 {
		t.Fatal("refit ran while SkipRefit was true")
	}
	if err := ing.Refit("unblocked"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("refit after unblock published %d times", calls)
	}
}

func TestSnapshotAdoptMarkPublished(t *testing.T) {
	db := testDB(t, 40, 120, 7)
	m := learnModel(t, db)
	w := openTestWAL(t, t.TempDir())
	ing := newIngestor(t, Config{Model: m, DB: db, WAL: w, RefitRows: -1})
	rng := rand.New(rand.NewSource(2))
	if _, err := ing.Ingest(randRows(rng, 40, 50)); err != nil {
		t.Fatal(err)
	}

	snap, wm, appliedAt := ing.SnapshotDB()
	if snap.Rows() != db.Rows() {
		t.Fatalf("snapshot has %d rows, staging %d", snap.Rows(), db.Rows())
	}
	// A rebuild learned on the snapshot adopts cleanly and the bookkeeping
	// marks its rows published.
	rebuilt := learnModel(t, snap)
	if err := ing.Adopt(rebuilt); err != nil {
		t.Fatal(err)
	}
	ing.MarkPublished(wm, appliedAt)
	if pending, _, published := ing.Pending(); pending != 0 || published != wm {
		t.Fatalf("after adopt: pending %d published %d want 0/%d", pending, published, wm)
	}
	// Stale MarkPublished must not roll the watermark back.
	ing.MarkPublished(wm-1, 0)
	if pending, _, published := ing.Pending(); pending != 0 || published != wm {
		t.Fatalf("stale mark rolled back: pending %d published %d", pending, published)
	}
	// The adopted model keeps refitting from the new statistics.
	if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Refit("post-adopt"); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRebuildsDatabase(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t, 30, 90, 8)
	m := learnModel(t, db)
	w := openTestWAL(t, dir)
	ing := newIngestor(t, Config{Model: m, DB: db, WAL: w, RefitRows: -1})
	rng := rand.New(rand.NewSource(4))
	all := randRows(rng, 30, 120)
	for i := 0; i < len(all); i += 16 {
		end := i + 16
		if end > len(all) {
			end = len(all)
		}
		if _, err := ing.Ingest(all[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	finalRows := db.Rows()
	last := w.LastSeq()
	ing.Close()
	w.Close()

	// Cold start: base dataset + full replay reproduces the staging DB.
	w2 := openTestWAL(t, dir)
	base := testDB(t, 30, 90, 8)
	n, seq, err := Replay(base, w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(all) || seq != last {
		t.Fatalf("replayed %d rows to seq %d, want %d rows to %d", n, seq, len(all), last)
	}
	if base.Rows() != finalRows {
		t.Fatalf("replayed database has %d rows, staging had %d", base.Rows(), finalRows)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("replayed database invalid: %v", err)
	}
}

// TestReplayFromWatermark: replay onto a recovered state skips records the
// state already reflects and applies only the newer ones.
func TestReplayFromWatermark(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t, 30, 0, 9)
	m := learnModel(t, db)
	w := openTestWAL(t, dir)
	ing := newIngestor(t, Config{Model: m, DB: db, WAL: w, RefitRows: -1})
	for i := 0; i < 5; i++ {
		if _, err := ing.Ingest([]Row{{Table: "Person", Attrs: []int32{int32(i % 2), 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()
	w.Close()

	w2 := openTestWAL(t, dir)
	// The "snapshot state" as of watermark 2: base + the first two rows.
	state := testDB(t, 30, 0, 9)
	state.Table("Person").MustAppendRow([]int32{0, 0}, nil)
	state.Table("Person").MustAppendRow([]int32{1, 0}, nil)
	n, last, err := Replay(state, w2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || last != 5 {
		t.Fatalf("replayed %d rows to seq %d, want 3 to 5", n, last)
	}
	if state.Table("Person").Len() != 35 {
		t.Fatalf("state has %d persons, want 35", state.Table("Person").Len())
	}
}
