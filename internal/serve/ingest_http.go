package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"prmsel/internal/dataset"
	"prmsel/internal/ingest"
	"prmsel/internal/store"
)

// ingestRowJSON is one row of an ingest request. Attribute values may be
// category labels ("college") or numeric codes; foreign keys are row
// indexes into the referenced table, where indexes just past the current
// end refer to rows earlier in the same batch.
type ingestRowJSON struct {
	Table string           `json:"table"`
	Attrs map[string]any   `json:"attrs"`
	FKs   map[string]int32 `json:"fks,omitempty"`
}

type ingestRequest struct {
	Model string          `json:"model,omitempty"`
	Row   *ingestRowJSON  `json:"row,omitempty"`
	Rows  []ingestRowJSON `json:"rows,omitempty"`
}

// resolveIngestRow converts one JSON row to the wire Row, resolving
// labels to codes against the schema. Validation proper (domains, FK
// ranges) happens inside the ingestor; this only needs the shape.
func resolveIngestRow(db *dataset.Database, i int, r ingestRowJSON) (ingest.Row, error) {
	t := db.Table(r.Table)
	if t == nil {
		return ingest.Row{}, fmt.Errorf("row %d: unknown table %q", i, r.Table)
	}
	if len(r.Attrs) != len(t.Attributes) {
		return ingest.Row{}, fmt.Errorf("row %d: table %s needs attributes %v", i, r.Table, attrNames(t))
	}
	out := ingest.Row{Table: r.Table, Attrs: make([]int32, len(t.Attributes))}
	for ai, a := range t.Attributes {
		v, ok := r.Attrs[a.Name]
		if !ok {
			return ingest.Row{}, fmt.Errorf("row %d: missing attribute %s.%s", i, r.Table, a.Name)
		}
		switch val := v.(type) {
		case string:
			code, err := t.Code(a.Name, val)
			if err != nil {
				return ingest.Row{}, fmt.Errorf("row %d: %v", i, err)
			}
			out.Attrs[ai] = code
		case float64:
			if val != math.Trunc(val) || val < 0 || val >= float64(a.Card()) {
				return ingest.Row{}, fmt.Errorf("row %d: attribute %s.%s code %v out of domain [0,%d)", i, r.Table, a.Name, v, a.Card())
			}
			out.Attrs[ai] = int32(val)
		default:
			return ingest.Row{}, fmt.Errorf("row %d: attribute %s.%s must be a label or a code", i, r.Table, a.Name)
		}
	}
	if len(t.ForeignKeys) > 0 {
		out.FKs = make([]int32, len(t.ForeignKeys))
		for fi, fk := range t.ForeignKeys {
			ref, ok := r.FKs[fk.Name]
			if !ok {
				return ingest.Row{}, fmt.Errorf("row %d: missing foreign key %s.%s", i, r.Table, fk.Name)
			}
			out.FKs[fi] = ref
		}
	}
	if len(r.FKs) > len(t.ForeignKeys) {
		return ingest.Row{}, fmt.Errorf("row %d: table %s has %d foreign keys, got %d", i, r.Table, len(t.ForeignKeys), len(r.FKs))
	}
	return out, nil
}

func attrNames(t *dataset.Table) []string {
	names := make([]string, len(t.Attributes))
	for i, a := range t.Attributes {
		names[i] = a.Name
	}
	return names
}

// handleIngest is POST /v1/ingest: durably append rows to the model's
// WAL and fold them into its staging database. A 200 means the rows are
// acknowledged — fsynced in the log; they survive a crash and reach the
// served model at the next refit.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	rec := recordOf(w)
	rec.kind = kindIngest
	// reject counts the refusal and answers it (rejects are errors, so
	// the journal always keeps them).
	reject := func(code int, msg string) {
		s.metrics.ObserveIngestReject()
		s.fail(w, code, msg)
	}
	var req ingestRequest
	if !s.readJSON(w, r, &req) {
		s.metrics.ObserveIngestReject()
		return
	}
	rows := req.Rows
	if req.Row != nil {
		rows = append([]ingestRowJSON{*req.Row}, rows...)
	}
	if len(rows) == 0 {
		reject(http.StatusBadRequest, `ingest needs "row" or "rows"`)
		return
	}
	if len(rows) > ingest.MaxBatchRows {
		reject(http.StatusBadRequest, fmt.Sprintf("batch of %d rows exceeds the %d-row limit", len(rows), ingest.MaxBatchRows))
		return
	}
	model := s.resolveModel(w, req.Model)
	if model == nil {
		s.metrics.ObserveIngestReject()
		return
	}
	rec.model = model.Name
	ing := model.ingestor()
	if ing == nil {
		reject(http.StatusConflict, fmt.Sprintf("model %q does not accept ingest (enable it with -ingest)", model.Name))
		return
	}
	snap := model.Current()
	batch := make([]ingest.Row, len(rows))
	for i, jr := range rows {
		row, err := resolveIngestRow(snap.DB, i, jr)
		if err != nil {
			reject(http.StatusBadRequest, err.Error())
			return
		}
		batch[i] = row
	}

	seq, err := ing.Ingest(batch)
	if err != nil {
		switch {
		case errors.Is(err, ingest.ErrBacklog):
			setRetryAfter(w, time.Second)
			reject(http.StatusTooManyRequests, "refit backlog full; retry later")
		case errors.Is(err, store.ErrWALBroken):
			// Structured degraded-mode refusal, not an SLO violation: the
			// log stays down until restart, so clients should back off
			// (Retry-After) while reads keep serving.
			setRetryAfter(w, time.Second)
			reject(http.StatusServiceUnavailable, "write-ahead log failed; ingest is down until restart")
		default:
			reject(http.StatusBadRequest, err.Error())
		}
		return
	}
	pending, _, _ := ing.Pending()
	rec.items = len(batch)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":        model.Name,
		"accepted":     len(batch),
		"wal_seq":      seq,
		"pending_rows": pending,
	})
}
