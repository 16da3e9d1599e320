// Package store is the durable model store: crash-safe persistence for
// learned PRMs across daemon restarts. The paper's premise is that a
// model is built once by expensive structure search and then consulted
// on every query; this package makes that artifact survive a crash, so a
// restarted server publishes the last good model immediately instead of
// relearning before its first estimate.
//
// Layout (one directory per store; the directory listing is the only
// index):
//
//	<dir>/<model>-<generation>.snap      framed snapshot files
//	<dir>/<model>-<generation>.state     ingest dataset state (state.go)
//	<dir>/<file>.corrupt                 quarantined invalid files
//	<dir>/*.tmp                          transient (removed on Open)
//
// Every snapshot file is a fixed header followed by the model's
// core.Encode payload:
//
//	[0:8)   magic "PRMSNAP1"
//	[8]     format version (1)
//	[9:13)  CRC32 (IEEE) of the payload, little-endian
//	[13:21) payload length, uint64 little-endian
//	[21:)   payload (gob, exactly as core.Encode wrote it)
//
// Writes are crash-safe by construction: payload to a temp file in the
// same directory, fsync, atomic rename, directory fsync — a reader never
// observes a half-written snapshot under its final name, and a crash at
// any point leaves at worst a stray *.tmp plus the previous good
// generation. A snapshot file's mtime is its persist time.
//
// Recovery trusts nothing: it validates on-disk generations newest first
// (magic, version, length, checksum, full decode) and, when one is torn,
// truncated or bit-flipped, quarantines it to <file>.corrupt and falls
// back to the next-newest — never crashing, and never deleting evidence.
//
// Fault injection: the injected points store.write, store.fsync, and
// store.read (internal/faults) simulate crashes and I/O failures at each
// stage; the package's tests use them to prove recovery after a kill at
// any point of the write protocol.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/faults"
)

const (
	// Magic opens every snapshot file.
	Magic = "PRMSNAP1"
	// Version is the current frame format version.
	Version = 1
	// headerSize = magic + version byte + crc32 + payload length.
	headerSize = len(Magic) + 1 + 4 + 8
	// MaxSnapshotBytes bounds a framed snapshot sent between processes:
	// the gate's rollout fetch and a replica's POST .../load (64 MiB, far
	// past any budgeted PRM, small enough to refuse a runaway stream).
	MaxSnapshotBytes = 64 << 20
)

// ErrNoSnapshot reports that recovery found no valid generation at all.
var ErrNoSnapshot = errors.New("store: no recoverable snapshot")

// ErrNotSnapshot reports bytes that do not carry the snapshot magic — the
// caller may fall back to treating them as a raw core.Encode stream.
var ErrNotSnapshot = errors.New("store: not a framed snapshot")

// Store is one on-disk model store. All methods are safe for concurrent
// use: every write lands by an atomic rename, and pruning only removes
// files older than the generations it keeps.
type Store struct {
	dir  string
	keep int
}

// Open creates (if needed) and opens the store directory. keep bounds how
// many generations per model survive pruning (minimum 1; default 3 when
// zero). Stray *.tmp files from a previous crash are removed.
func Open(dir string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// A crash during a write leaves a torn temp file; it was never
	// renamed, so it holds nothing durable — sweep it.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return &Store{dir: dir, keep: keep}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// safeName maps a model name onto a filename-safe prefix.
func safeName(model string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, model)
}

func snapName(model string, gen int64) string {
	return fmt.Sprintf("%s-%08d.snap", safeName(model), gen)
}

// Frame wraps a core.Encode payload in the snapshot header.
func Frame(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out, Magic)
	out[len(Magic)] = Version
	binary.LittleEndian.PutUint32(out[len(Magic)+1:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(out[len(Magic)+5:], uint64(len(payload)))
	copy(out[headerSize:], payload)
	return out
}

// Payload validates a framed snapshot's header and checksum and returns
// the payload bytes. Bytes without the magic return ErrNotSnapshot; a
// recognized frame that is truncated, version-skewed, length-skewed,
// empty, or checksum-broken returns a descriptive error.
func Payload(b []byte) ([]byte, error) {
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, ErrNotSnapshot
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("store: truncated header: %d bytes, need %d", len(b), headerSize)
	}
	if v := b[len(Magic)]; v != Version {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(b[len(Magic)+1:])
	wantLen := binary.LittleEndian.Uint64(b[len(Magic)+5:])
	payload := b[headerSize:]
	if wantLen == 0 {
		return nil, errors.New("store: zero-length payload")
	}
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("store: payload is %d bytes, header promises %d", len(payload), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("store: payload checksum %08x does not match header %08x", got, wantCRC)
	}
	return payload, nil
}

// Save durably persists one generation of the named model: encode writes
// the core.Encode payload. The snapshot file lands (temp + fsync + rename
// + dir fsync) with savedAt as its mtime, then generations older than the
// keep bound are pruned. A failure at any stage leaves the previous state
// recoverable.
func (s *Store) Save(model string, gen int64, savedAt time.Time, encode func(io.Writer) error) error {
	var payload bytes.Buffer
	if err := encode(&payload); err != nil {
		return fmt.Errorf("store: encode %s: %w", model, err)
	}
	if err := s.writeAtomic(snapName(model, gen), Frame(payload.Bytes()), savedAt); err != nil {
		return err
	}
	s.prune(model, gen)
	return nil
}

// writeAtomic is the crash-safe write protocol: temp file in the store
// directory, full write, mtime (when non-zero), fsync, close, atomic
// rename, directory fsync. The injected points store.write and
// store.fsync simulate a crash at each stage — both leave a torn temp
// file behind (exactly what a real kill would) and never touch the final
// name.
func (s *Store) writeAtomic(name string, data []byte, mtime time.Time) error {
	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if ferr := faults.Inject("store.write"); ferr != nil {
		// A crash mid-write: half the bytes reach the disk, the temp
		// file stays, the final name is never touched.
		tmp.Write(data[:len(data)/2])
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", name, ferr)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if !mtime.IsZero() {
		// Before the fsync, so the timestamp is as durable as the bytes.
		// A failure leaves the write time, a moment later: not worth
		// losing the snapshot over.
		_ = os.Chtimes(tmp.Name(), mtime, mtime)
	}
	if ferr := faults.Inject("store.fsync"); ferr != nil {
		// A crash between write and fsync: the data may never have left
		// the page cache, so the write counts for nothing.
		tmp.Close()
		return fmt.Errorf("store: fsync %s: %w", name, ferr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: fsync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rename %s: %w", name, err)
	}
	s.syncDir()
	return nil
}

// syncDir fsyncs the store directory so a completed rename is durable.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Generations lists the model's on-disk snapshot generations, newest
// first — the store's only index.
func (s *Store) Generations(model string) []int64 {
	prefix := safeName(model) + "-"
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var gens []int64
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, prefix) || !strings.HasSuffix(n, ".snap") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(n, prefix), ".snap")
		g, err := strconv.ParseInt(num, 10, 64)
		if err != nil || snapName(model, g) != n {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// prune removes generations older than the keep bound, never touching
// the just-saved generation or quarantined files.
func (s *Store) prune(model string, activeGen int64) {
	gens := s.Generations(model)
	kept := 0
	for _, g := range gens {
		if g == activeGen || kept < s.keep {
			kept++
			continue
		}
		os.Remove(filepath.Join(s.dir, snapName(model, g)))
	}
	s.pruneState(model)
}

// Recovered is the result of recovering one model from the store.
type Recovered struct {
	// Model is the decoded, validated PRM.
	Model *core.PRM
	// Generation is the snapshot's generation number.
	Generation int64
	// SavedAt is when the snapshot was persisted (the file's mtime, which
	// Save sets to the time its caller passed). It is the staleness anchor
	// health reports for a recovered model.
	SavedAt time.Time
	// File is the snapshot filename inside the store directory.
	File string
	// Quarantined lists files moved aside as <file>.corrupt during this
	// recovery.
	Quarantined []string
}

// Recover loads the newest valid generation of the named model, trying
// every on-disk generation newest first. A candidate that fails
// validation (torn, truncated, bit-flipped, version-skewed, or
// undecodable) is quarantined to <file>.corrupt and recovery moves on; a
// candidate that fails to read (gone, or an I/O error) is skipped without
// quarantine. ErrNoSnapshot reports that nothing valid remains.
func (s *Store) Recover(model string) (*Recovered, error) {
	rec := &Recovered{}
	for _, gen := range s.Generations(model) {
		name := snapName(model, gen)
		path := filepath.Join(s.dir, name)
		if ferr := faults.Inject("store.read"); ferr != nil {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			// Pruned or lost since the listing, or unreadable: not
			// corruption — no quarantine.
			continue
		}
		payload, err := Payload(b)
		var m *core.PRM
		if err == nil {
			m, err = core.Decode(bytes.NewReader(payload))
		}
		if err != nil {
			// Invalid bytes under a durable name: quarantine for
			// forensics and fall back to the previous generation.
			if qerr := os.Rename(path, path+".corrupt"); qerr == nil {
				rec.Quarantined = append(rec.Quarantined, name+".corrupt")
			}
			continue
		}
		if fi, err := os.Stat(path); err == nil {
			rec.SavedAt = fi.ModTime()
		}
		rec.Model = m
		rec.Generation = gen
		rec.File = name
		return rec, nil
	}
	if len(rec.Quarantined) > 0 {
		return rec, fmt.Errorf("%w for model %q (%d quarantined)", ErrNoSnapshot, model, len(rec.Quarantined))
	}
	return rec, fmt.Errorf("%w for model %q", ErrNoSnapshot, model)
}
