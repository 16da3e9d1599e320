package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prmsel/internal/dataset"
)

// Ingest state artifact: <model>-<generation>.state, written beside the
// model snapshot of the same generation. A model snapshot holds CPDs, not
// rows — so once the WAL is truncated past a watermark, the rows it
// carried must be durable somewhere else. The state artifact is that
// somewhere: the full ingested database plus the WAL watermark it
// reflects, framed and written with the same temp-write → fsync → rename
// discipline as snapshots. Cold-start recovery loads the state for the
// recovered model generation and replays only WAL records newer than its
// watermark.
//
// Payload layout (inside the standard PRMSNAP1 frame):
//
//	[0:8)  WAL watermark, uint64 little-endian
//	[8:)   dataset encode stream (gob)

func stateName(model string, gen int64) string {
	return fmt.Sprintf("%s-%08d.state", safeName(model), gen)
}

// SaveState durably persists the ingest state for one model generation:
// the database contents and the WAL sequence number they reflect. Callers
// must persist the matching model snapshot first and truncate the WAL
// only after SaveState returns nil.
func (s *Store) SaveState(model string, gen int64, watermark uint64, db *dataset.Database) error {
	var payload bytes.Buffer
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], watermark)
	payload.Write(wm[:])
	if err := db.Encode(&payload); err != nil {
		return fmt.Errorf("store: encode state %s: %w", model, err)
	}
	return s.writeAtomic(stateName(model, gen), Frame(payload.Bytes()), time.Time{})
}

// RecoverState loads the ingest state persisted for one model generation.
// A missing file returns os.ErrNotExist (the caller falls back to the
// base dataset plus a full WAL replay); an invalid file is quarantined to
// <file>.corrupt and reported as an error.
func (s *Store) RecoverState(model string, gen int64) (watermark uint64, db *dataset.Database, err error) {
	name := stateName(model, gen)
	path := filepath.Join(s.dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	payload, err := Payload(b)
	if err == nil && len(payload) < 8 {
		err = fmt.Errorf("store: state payload too short: %d bytes", len(payload))
	}
	if err == nil {
		watermark = binary.LittleEndian.Uint64(payload)
		db, err = dataset.DecodeDatabase(bytes.NewReader(payload[8:]))
	}
	if err != nil {
		if qerr := os.Rename(path, path+".corrupt"); qerr == nil {
			return 0, nil, fmt.Errorf("store: state %s invalid (quarantined): %w", name, err)
		}
		return 0, nil, fmt.Errorf("store: state %s invalid: %w", name, err)
	}
	return watermark, db, nil
}

// pruneState removes state artifacts whose generation no longer has a
// snapshot on disk — called from the snapshot prune path so the two
// artifact families age out together. The state files are listed before
// the snapshots: a state lands only after its snapshot, so a concurrent
// save's fresh state always finds its snapshot live.
func (s *Store) pruneState(model string) {
	prefix := safeName(model) + "-"
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	live := make(map[int64]bool)
	for _, g := range s.Generations(model) {
		live[g] = true
	}
	for _, e := range entries {
		n := e.Name()
		var g int64
		if _, err := fmt.Sscanf(n, prefix+"%d.state", &g); err != nil || stateName(model, g) != n {
			continue
		}
		if !live[g] {
			os.Remove(filepath.Join(s.dir, n))
		}
	}
}
