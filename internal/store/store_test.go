package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prmsel/internal/bayesnet"
	"prmsel/internal/cliutil"
	"prmsel/internal/core"
	"prmsel/internal/eval"
	"prmsel/internal/faults"
	"prmsel/internal/learn"
)

// testModel learns one small PRM to persist in the tests.
func testModel(t testing.TB) *core.PRM {
	t.Helper()
	db, err := cliutil.LoadDB("", "fig1", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm, err := eval.LearnPRM(db, "PRM", eval.LearnOptions{
		Kind: learn.Tree, Criterion: learn.SSN, Budget: 4400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prm.M
}

func mustOpen(t *testing.T, dir string, keep int) *Store {
	t.Helper()
	st, err := Open(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustSave(t *testing.T, st *Store, model string, gen int64, m *core.PRM) {
	t.Helper()
	if err := st.Save(model, gen, time.Now(), m.Encode); err != nil {
		t.Fatal(err)
	}
}

func TestSaveRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	savedAt := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := st.Save("fig1", 1, savedAt, m.Encode); err != nil {
		t.Fatal(err)
	}

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want 1", rec.Generation)
	}
	if rec.Model == nil || rec.Model.StorageBytes() != m.StorageBytes() {
		t.Errorf("recovered model differs: %v", rec.Model)
	}
	if !rec.SavedAt.Equal(savedAt) {
		t.Errorf("recovered SavedAt = %v, want the persist time %v", rec.SavedAt, savedAt)
	}
	if len(rec.Quarantined) != 0 {
		t.Errorf("clean recovery quarantined %v", rec.Quarantined)
	}
}

func TestRecoverPicksNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 2 {
		t.Errorf("recovered generation = %d, want 2", rec.Generation)
	}
}

// TestRecoverPrefersNewestOverLastSaved: the newest valid generation on
// disk wins, not the one saved last — a late save of an older generation
// must not pull recovery backwards.
func TestRecoverPrefersNewestOverLastSaved(t *testing.T) {
	st := mustOpen(t, t.TempDir(), 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 6, m)
	mustSave(t, st, "fig1", 5, m)

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 6 {
		t.Errorf("recovered generation = %d, want the newest, 6", rec.Generation)
	}
}

func TestRecoverEmptyStore(t *testing.T) {
	st := mustOpen(t, t.TempDir(), 3)
	if _, err := st.Recover("ghost"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Recover on empty store = %v, want ErrNoSnapshot", err)
	}
}

// TestPayloadCorruptionTable drives the frame validator through every
// way a snapshot file can be broken on disk.
func TestPayloadCorruptionTable(t *testing.T) {
	var buf bytes.Buffer
	if err := testModel(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := Frame(buf.Bytes())

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerSize-3] }, "truncated header"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }, "header promises"},
		{"wrong version byte", func(b []byte) []byte { b[len(Magic)] = 0x7f; return b }, "unsupported snapshot version"},
		{"wrong crc", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "checksum"},
		{"zero-length payload", func(b []byte) []byte {
			z := Frame(nil)
			return z
		}, "zero-length payload"},
		{"no magic", func(b []byte) []byte { return []byte("just some bytes") }, ErrNotSnapshot.Error()},
		{"empty file", func(b []byte) []byte { return nil }, ErrNotSnapshot.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			_, err := Payload(tc.mutate(b))
			if err == nil {
				t.Fatal("Payload accepted corrupt bytes")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	// And the untouched frame round-trips.
	payload, err := Payload(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Decode(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFallsBackAndQuarantines corrupts the newest generation on
// disk: recovery must quarantine it to <file>.corrupt and serve the
// previous good generation — never an error, never a crash.
func TestRecoverFallsBackAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)

	// Bit-flip the active generation's payload.
	path := filepath.Join(dir, snapName("fig1", 2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want fallback to 1", rec.Generation)
	}
	if len(rec.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly the corrupt file", rec.Quarantined)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still present under its durable name: %v", err)
	}
}

// TestRecoverQuarantinesUnnormalizedModel: a frame whose checksum holds
// but whose model has a CPD row that is not a distribution (each entry
// ×5) is as corrupt as a flipped bit — recovery quarantines it and serves
// the previous generation instead of five-fold counts.
func TestRecoverQuarantinesUnnormalizedModel(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	mustSave(t, st, "fig1", 1, testModel(t))
	bad := testModel(t)
	leaf := bad.CPD(0).(*bayesnet.TreeCPD).Root
	for !leaf.IsLeaf() {
		leaf = leaf.Children[0]
	}
	for i := range leaf.Dist {
		leaf.Dist[i] *= 5
	}
	mustSave(t, st, "fig1", 2, bad)

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want fallback to 1", rec.Generation)
	}
	path := filepath.Join(dir, snapName("fig1", 2))
	if len(rec.Quarantined) != 1 || rec.Quarantined[0] != snapName("fig1", 2)+".corrupt" {
		t.Errorf("quarantined = %v, want exactly generation 2", rec.Quarantined)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("unnormalized model not quarantined: %v", err)
	}
}

// TestRecoverTruncatedSnapshot simulates the classic torn write: the
// file exists under its durable name but holds only a prefix.
func TestRecoverTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)

	path := filepath.Join(dir, snapName("fig1", 2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want 1", rec.Generation)
	}
}

// TestManifestPointsAtMissingGeneration deletes the newest generation's
// file (the name is from when a manifest still named it): recovery must
// serve the next generation without quarantining anything.
func TestManifestPointsAtMissingGeneration(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)
	if err := os.Remove(filepath.Join(dir, snapName("fig1", 2))); err != nil {
		t.Fatal(err)
	}

	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want 1", rec.Generation)
	}
	if len(rec.Quarantined) != 0 {
		t.Errorf("a missing file is not corruption; quarantined %v", rec.Quarantined)
	}
}

// TestEveryGenerationCorrupt: when nothing valid remains, Recover
// reports ErrNoSnapshot (the caller then builds from scratch) and every
// invalid file is quarantined — no manual cleanup needed before the
// store is usable again.
func TestEveryGenerationCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)
	for _, gen := range []int64{1, 2} {
		path := filepath.Join(dir, snapName("fig1", gen))
		if err := os.WriteFile(path, []byte(Magic+"garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec, err := st.Recover("fig1")
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Recover = %v, want ErrNoSnapshot", err)
	}
	if len(rec.Quarantined) != 2 {
		t.Errorf("quarantined = %v, want both generations", rec.Quarantined)
	}
	// The store heals: a fresh save and recover work immediately.
	mustSave(t, st, "fig1", 3, m)
	rec, err = st.Recover("fig1")
	if err != nil || rec.Generation != 3 {
		t.Fatalf("store did not heal after quarantine: gen=%d err=%v", rec.Generation, err)
	}
}

// TestKillDuringWrite arms each injected crash point of the write
// protocol: the failed save must leave no torn file under a durable
// name, the previous generation must stay recoverable, and reopening
// the store must sweep the torn temp file — no manual cleanup, ever.
func TestKillDuringWrite(t *testing.T) {
	for _, point := range []string{"store.write", "store.fsync"} {
		t.Run(point, func(t *testing.T) {
			faults.Reset()
			defer faults.Reset()
			dir := t.TempDir()
			st := mustOpen(t, dir, 3)
			m := testModel(t)
			mustSave(t, st, "fig1", 1, m)

			faults.Set(point, faults.Fault{Err: errors.New("injected crash")})
			if err := st.Save("fig1", 2, time.Now(), m.Encode); err == nil {
				t.Fatalf("Save survived an injected crash at %s", point)
			}
			faults.Clear(point)

			if gens := st.Generations("fig1"); len(gens) != 1 || gens[0] != 1 {
				t.Errorf("generations after torn write = %v, want [1]", gens)
			}
			tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if len(tmps) == 0 {
				t.Error("crash left no torn temp file; injection did not simulate a kill")
			}

			rec, err := st.Recover("fig1")
			if err != nil {
				t.Fatalf("previous generation unrecoverable after crash at %s: %v", point, err)
			}
			if rec.Generation != 1 {
				t.Errorf("recovered generation = %d, want 1", rec.Generation)
			}

			// Reopening sweeps the debris.
			mustOpen(t, dir, 3)
			tmps, _ = filepath.Glob(filepath.Join(dir, "*.tmp"))
			if len(tmps) != 0 {
				t.Errorf("Open left temp files behind: %v", tmps)
			}
		})
	}
}

// TestReadFaultSkipsWithoutQuarantine: an I/O error reading a candidate
// is transient, not corruption — recovery moves on and leaves the file
// alone.
func TestReadFaultSkipsWithoutQuarantine(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "fig1", 1, m)
	mustSave(t, st, "fig1", 2, m)

	// First read (the newest, gen 2) fails; the next generation works.
	faults.Set("store.read", faults.Fault{Err: errors.New("injected io error"), Times: 1})
	rec, err := st.Recover("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Errorf("recovered generation = %d, want 1 (gen 2 read failed)", rec.Generation)
	}
	if len(rec.Quarantined) != 0 {
		t.Errorf("io error caused quarantine of %v", rec.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName("fig1", 2))); err != nil {
		t.Errorf("gen 2 file should be untouched: %v", err)
	}
}

func TestPruneKeepsNewestGenerations(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 2)
	m := testModel(t)
	for gen := int64(1); gen <= 4; gen++ {
		mustSave(t, st, "fig1", gen, m)
	}
	gens := st.Generations("fig1")
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 3 {
		t.Errorf("generations after prune = %v, want [4 3]", gens)
	}
}

func TestModelsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 3)
	m := testModel(t)
	mustSave(t, st, "census", 1, m)
	mustSave(t, st, "tb", 7, m)

	rec, err := st.Recover("census")
	if err != nil || rec.Generation != 1 {
		t.Fatalf("census: gen=%d err=%v", rec.Generation, err)
	}
	rec, err = st.Recover("tb")
	if err != nil || rec.Generation != 7 {
		t.Fatalf("tb: gen=%d err=%v", rec.Generation, err)
	}
}
