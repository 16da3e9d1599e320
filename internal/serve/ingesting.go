package serve

import (
	"fmt"
	"path/filepath"
	"time"

	"prmsel/internal/core"
	"prmsel/internal/dataset"
	"prmsel/internal/ingest"
	"prmsel/internal/store"
)

// setupIngest brings up a model's streaming write path during Add: open
// (and repair) the WAL, recover the newest snapshot + dataset state,
// replay the WAL suffix past the recovered watermark, install a new
// generation over the result, and start the ingestor. The model serves
// when this returns.
func (m *Model) setupIngest(r *Registry) error {
	st := r.store
	if st == nil {
		return fmt.Errorf("serve: model %s: ingest requires a durable store (set -store-dir)", m.Name)
	}
	w, info, err := store.OpenWAL(filepath.Join(st.Dir(), "wal", m.Name), store.WALOptions{})
	if err != nil {
		return fmt.Errorf("serve: model %s: open WAL: %w", m.Name, err)
	}
	for _, tear := range info.TornTails {
		r.logf("serve: model %s: quarantined torn WAL tail in %s (%d bytes at offset %d): %s",
			m.Name, tear.Segment, tear.Bytes, tear.Offset, tear.Reason)
	}

	start := time.Now()
	db, prm, replayed, recoveredAt, err := m.recoverIngest(r, st, w)
	if err != nil {
		w.Close()
		return err
	}
	if replayed > 0 {
		r.logf("serve: model %s: ingest recovery replayed %d rows from the WAL", m.Name, replayed)
	}

	// Serve the initial generation before the write path opens: its
	// database already contains every replayed row, so its state artifact
	// sits at the WAL head and the covered log prefix can be reclaimed.
	// A recovered model's *parameters* may lag the replayed rows; the
	// recovery refit triggered below folds them in.
	watermark := w.LastSeq()
	snap := m.snapshot(db.Clone(), prm, m.gen.Add(1), start)
	snap.Watermark = watermark
	m.wal = w
	m.install(snap)
	if !recoveredAt.IsZero() {
		// The parameters came from the store: report the model recovered,
		// anchored at the persisted snapshot's time, as a read-only
		// recovery does.
		m.noteRecovered(recoveredAt)
	}

	ing, err := ingest.New(ingest.Config{
		Model:         prm,
		DB:            db,
		WAL:           w,
		Watermark:     watermark,
		Pending:       int64(replayed),
		RefitRows:     int(m.Spec.Ingest.RefitRows),
		RefitInterval: m.Spec.Ingest.RefitInterval,
		MaxPending:    int(m.Spec.Ingest.MaxPending),
		Publish:       m.publishRefit,
		// A refit defers while a full rebuild is staging (the original
		// rule) or while the refit breaker refuses work (repeated refit
		// failures); deferred rows stay pending for the next trigger.
		SkipRefit: func() bool { return m.building.Load() || !m.server().refitAllowed() },
		OnIngest:  func(rows, walBytes int) { m.server().observeIngest(rows, walBytes) },
		OnRefit:   func(d time.Duration, err error) { m.server().observeRefit(d, err) },
		Logf:      r.logf,
	})
	if err != nil {
		w.Close()
		return fmt.Errorf("serve: model %s: start ingestor: %w", m.Name, err)
	}
	m.ing.Store(ing)
	if replayed > 0 {
		// Catch the recovered parameters up with the replayed rows.
		ing.TriggerRefit("recovery")
	}
	return nil
}

// recoverIngest assembles the staging database and model for the write
// path. Preferred: persisted snapshot + paired dataset state + WAL suffix
// replay. Fallback: the base dataset, a full WAL replay, and a fresh
// learn. recoveredAt is zero when the model was learned fresh; replayed
// counts rows the returned parameters do not yet reflect.
func (m *Model) recoverIngest(r *Registry, st *store.Store, w *store.WAL) (db *dataset.Database, prm *core.PRM, replayed int, recoveredAt time.Time, err error) {
	if rec, rerr := st.Recover(m.Name); rerr == nil {
		for _, q := range rec.Quarantined {
			r.logf("serve: model %s: quarantined corrupt snapshot %s", m.Name, q)
		}
		wm, sdb, serr := st.RecoverState(m.Name, rec.Generation)
		if serr != nil {
			r.logf("serve: model %s: no usable dataset state for generation %d (%v); rebuilding from the base dataset",
				m.Name, rec.Generation, serr)
		} else if n, _, perr := ingest.Replay(sdb, w, wm); perr != nil {
			r.logf("serve: model %s: WAL replay past watermark %d failed (%v); rebuilding from the base dataset",
				m.Name, wm, perr)
		} else {
			r.logf("serve: model %s recovered from store (generation %d, watermark %d, %d rows replayed)",
				m.Name, rec.Generation, wm, n)
			return sdb, rec.Model, n, rec.SavedAt, nil
		}
	} else {
		r.logf("serve: model %s not recoverable from store (%v); building from scratch", m.Name, rerr)
	}

	// Fresh path: base dataset plus a full replay, then learn — the
	// learned parameters reflect every surviving WAL row, so nothing is
	// pending. An unreplayable log (state artifact lost after
	// truncation, or a schema change) is abandoned: its rows cannot be
	// interpreted, and new appends continue past them.
	db, err = m.loadDB()
	if err != nil {
		return nil, nil, 0, time.Time{}, err
	}
	if _, _, perr := ingest.Replay(db, w, 0); perr != nil {
		r.logf("serve: model %s: full WAL replay failed (%v); abandoning %d unreplayable records", m.Name, perr, w.LastSeq())
		if db, err = m.loadDB(); err != nil {
			return nil, nil, 0, time.Time{}, err
		}
	}
	if prm, err = m.learn(db); err != nil {
		return nil, nil, 0, time.Time{}, err
	}
	return db, prm, 0, time.Time{}, nil
}

// publishRefit is the ingestor's publish callback: wrap the refit model
// and cloned database into a new snapshot generation and install it
// (which persists the model snapshot and dataset state and truncates the
// WAL). Runs on the refit goroutine.
func (m *Model) publishRefit(pub ingest.Publication) error {
	snap := m.snapshot(pub.DB, pub.Model, m.gen.Add(1), time.Now())
	snap.Watermark = pub.Watermark
	if !m.install(snap) {
		// A concurrent rebuild landed a newer generation. If it already
		// covers these rows the refit's bookkeeping may settle; if not,
		// keep them pending for the next refit.
		if cur := m.cur.Load(); cur != nil && cur.Watermark >= pub.Watermark {
			return nil
		}
		return fmt.Errorf("serve: refit of %s superseded by a newer generation", m.Name)
	}
	if m.reg != nil {
		m.reg.logf("serve: model %s: refit published generation %d (%d rows, trigger %s, watermark %d)",
			m.Name, snap.Generation, pub.Rows, pub.Trigger, pub.Watermark)
	}
	return nil
}
