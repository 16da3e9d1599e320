package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prmsel/internal/baselines"
	"prmsel/internal/cliutil"
	"prmsel/internal/core"
	"prmsel/internal/dataset"
	"prmsel/internal/eval"
	"prmsel/internal/faults"
	"prmsel/internal/httpretry"
	"prmsel/internal/ingest"
	"prmsel/internal/learn"
	"prmsel/internal/resilience"
	"prmsel/internal/store"
)

// BuildSpec says how to construct one served model: which dataset to load
// (a cliutil built-in name, or a CSV directory) and the learning knobs.
type BuildSpec struct {
	// Dataset is a built-in dataset name (census, tb, fin, shop, fig1);
	// ignored when CSVDir is set.
	Dataset string
	// CSVDir, when non-empty, loads <table>.csv files instead.
	CSVDir string
	// Rows sizes the census generator (default 40000).
	Rows int
	// Scale sizes the TB/FIN/Shop generators (default 1.0).
	Scale float64
	// Seed drives the generators (default 1).
	Seed int64
	// BudgetBytes bounds the PRM's storage (default 4400, the paper's
	// operating point).
	BudgetBytes int
	// SampleBudget sizes the SAMPLE baseline in bytes (default
	// BudgetBytes).
	SampleBudget int
	// MHistAttrs is how many leading attributes the MHIST baseline
	// covers on single-table datasets (default 3; 0 disables MHIST).
	MHistAttrs int
	// Retry governs how background rebuilds recover from failures.
	Retry RetryPolicy
	// Drift tunes the accuracy watchdog fed by /v1/feedback.
	Drift DriftPolicy
	// Ingest, when enabled, attaches the WAL-backed streaming write path:
	// POST /v1/ingest appends rows durably and incremental refits fold
	// them into the served model. Requires a durable store.
	Ingest IngestPolicy
}

// IngestPolicy configures a model's streaming write path.
type IngestPolicy struct {
	// Enabled turns the write path on. It requires UseStore: the WAL
	// lives next to the snapshot store, and recovery needs both.
	Enabled bool
	// RefitRows triggers an incremental refit once this many rows are
	// pending (default 1024; negative disables the row trigger).
	RefitRows int64
	// RefitInterval triggers a refit this often while rows are pending
	// (zero disables the timer).
	RefitInterval time.Duration
	// MaxPending bounds unpublished rows before ingest returns 429
	// (default 65536).
	MaxPending int64
	// MaxSegmentBytes caps one WAL segment before rotation (default 4 MiB).
	MaxSegmentBytes int64
}

// RetryPolicy shapes the rebuild retry loop: exponential backoff with
// jitter between attempts, a cap on both the delay and the attempt count.
// A model whose rebuild cycle exhausts every attempt keeps serving its
// last good snapshot and reports itself degraded; it is never torn down.
type RetryPolicy struct {
	// MaxAttempts bounds one rebuild cycle (default 5).
	MaxAttempts int
	// BaseDelay is the wait after the first failure; each further failure
	// doubles it (default 250ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 15s).
	MaxDelay time.Duration
	// JitterFrac randomizes each delay by ±this fraction (default 0.2),
	// so many models failing together do not retry in lockstep.
	JitterFrac float64
	// Seed, when non-zero, seeds the policy's own jitter source so every
	// rebuild cycle draws the same delay sequence — the determinism the
	// retry tests need under -count=10. Zero seeds from the clock.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 250 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 15 * time.Second
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	return p
}

// ModelHealth is one model's serving-health snapshot, exposed through
// /healthz and /v1/models so an operator (or load balancer) can see a
// model that is alive but stale.
type ModelHealth struct {
	// Rebuilding reports an in-flight rebuild cycle.
	Rebuilding bool `json:"rebuilding"`
	// Attempts counts build attempts in the current (or most recent)
	// rebuild cycle.
	Attempts int `json:"attempts,omitempty"`
	// ConsecutiveFailures counts failed attempts since the last
	// successful build.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastError is the most recent build failure ("" when healthy).
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitempty"`
	// LastSuccessAt is when the served snapshot was built.
	LastSuccessAt time.Time `json:"last_success_at"`
	// StaleSeconds is how long the served snapshot has been older than a
	// requested rebuild — zero unless a rebuild has been failing.
	StaleSeconds float64 `json:"stale_seconds,omitempty"`
	// Degraded means the most recent rebuild cycle exhausted its retry
	// budget; the model still serves, from its last good snapshot.
	Degraded bool `json:"degraded,omitempty"`
	// Recovered means the served snapshot was loaded from the durable
	// store at startup rather than built fresh; it stays set until the
	// first successful rebuild replaces the recovered generation.
	Recovered bool `json:"recovered,omitempty"`
	// SnapshotSavedAt is when the recovered snapshot was persisted (the
	// store manifest's timestamp), the staleness anchor while Recovered.
	SnapshotSavedAt time.Time `json:"snapshot_saved_at,omitempty"`
	// SnapshotAgeSeconds is how old the recovered snapshot is — how far
	// behind live data the served model may be.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	// StoreError is the most recent snapshot-persist failure ("" when
	// persistence is healthy or disabled). Persist failures never block
	// serving; they only lose durability, which this surfaces.
	StoreError string `json:"store_error,omitempty"`
	// Drifted means the accuracy watchdog saw the rolling p90 observed
	// q-error exceed the model's drift threshold.
	Drifted bool `json:"drifted,omitempty"`
	// DriftP90 is the rolling window's p90 observed q-error.
	DriftP90 float64 `json:"drift_p90,omitempty"`
	// FeedbackSamples counts /v1/feedback observations in the window.
	FeedbackSamples int `json:"feedback_samples,omitempty"`
	// Ingest reports the streaming write path's position; nil for
	// read-only models.
	Ingest *IngestHealth `json:"ingest,omitempty"`
}

// IngestHealth is one model's write-path position.
type IngestHealth struct {
	// PendingRows counts acknowledged rows not yet folded into a
	// published snapshot.
	PendingRows int64 `json:"pending_rows"`
	// LastSeq is the last acknowledged WAL sequence number.
	LastSeq uint64 `json:"last_seq"`
	// PublishedWatermark is the WAL sequence the served snapshot reflects.
	PublishedWatermark uint64 `json:"published_watermark"`
}

func (s BuildSpec) withDefaults() BuildSpec {
	if s.Rows == 0 {
		s.Rows = 40000
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.BudgetBytes == 0 {
		s.BudgetBytes = 4400
	}
	if s.SampleBudget == 0 {
		s.SampleBudget = s.BudgetBytes
	}
	if s.MHistAttrs == 0 {
		s.MHistAttrs = 3
	}
	return s
}

// Snapshot is one immutable built generation of a model: the database it
// was learned from and every estimator serving it. Request handlers load a
// snapshot once and use it for the whole request, so a concurrent hot-swap
// never changes an in-flight request's world.
type Snapshot struct {
	DB *dataset.Database
	// Estimators holds the PRM first, then the registered baselines.
	Estimators []baselines.Estimator
	Generation int64
	BuiltAt    time.Time
	BuildTime  time.Duration
	// Watermark is the last WAL sequence folded into this snapshot (zero
	// when the model has no ingest path).
	Watermark uint64
	// appliedAt is the ingestor's cumulative applied-row count when this
	// snapshot's dataset was cloned; MarkPublished uses it to settle the
	// pending-row ledger after a full rebuild.
	appliedAt int64
}

// Primary returns the headline estimator (the PRM).
func (s *Snapshot) Primary() baselines.Estimator { return s.Estimators[0] }

// Estimator returns the named estimator, or nil.
func (s *Snapshot) Estimator(name string) baselines.Estimator {
	for _, e := range s.Estimators {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// Model is one registry entry: a build spec plus the atomically-swapped
// current snapshot. Rebuilds happen in the background; the served pointer
// flips only once the replacement is fully built.
type Model struct {
	Name string
	Spec BuildSpec

	cur      atomic.Pointer[Snapshot]
	gen      atomic.Int64
	building atomic.Bool

	// ing and wal are the streaming write path, set once during Add when
	// Spec.Ingest.Enabled and never changed afterwards. Both nil for
	// read-only models.
	ing atomic.Pointer[ingest.Ingestor]
	wal *store.WAL

	// reg is the owning registry: the durable store, the shutdown
	// signal, and the rebuild-goroutine waitgroup all live there.
	reg *Registry
	// drift is the accuracy watchdog's rolling q-error window.
	drift *driftWatch

	healthMu sync.Mutex
	health   ModelHealth
	// staleSince marks when a rebuild cycle first failed without a
	// subsequent success; zero while healthy.
	staleSince time.Time
}

// Current returns the served snapshot (never nil once the model is
// registered).
func (m *Model) Current() *Snapshot { return m.cur.Load() }

// ingestor returns the streaming write path, or nil for read-only models.
func (m *Model) ingestor() *ingest.Ingestor { return m.ing.Load() }

// publish installs snap as the served snapshot unless a strictly newer
// generation already landed — refits and rebuilds race for the pointer,
// and an older generation must never clobber a newer one. Reports
// whether snap is now (or already was) superseded-free, i.e. installed.
func (m *Model) publish(snap *Snapshot) bool {
	for {
		old := m.cur.Load()
		if old != nil && old.Generation >= snap.Generation {
			return false
		}
		if m.cur.CompareAndSwap(old, snap) {
			return true
		}
	}
}

// Rebuilding reports whether a background rebuild is in flight.
func (m *Model) Rebuilding() bool { return m.building.Load() }

// Health returns the model's current health snapshot.
func (m *Model) Health() ModelHealth {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h := m.health
	h.Rebuilding = m.building.Load()
	if !m.staleSince.IsZero() {
		h.StaleSeconds = time.Since(m.staleSince).Seconds()
	}
	if h.Recovered && !h.SnapshotSavedAt.IsZero() {
		h.SnapshotAgeSeconds = time.Since(h.SnapshotSavedAt).Seconds()
	}
	if m.drift != nil {
		h.DriftP90, h.FeedbackSamples, h.Drifted = m.drift.snapshot()
	}
	if ing := m.ingestor(); ing != nil {
		pending, last, published := ing.Pending()
		h.Ingest = &IngestHealth{PendingRows: pending, LastSeq: last, PublishedWatermark: published}
	}
	return h
}

// ObserveFeedback feeds one client-reported ground truth into the
// accuracy watchdog and returns the observed q-error plus whether this
// observation flipped the model into the drifted state.
func (m *Model) ObserveFeedback(estimate float64, truth int64) (qerr float64, flipped bool) {
	qerr = qerror(estimate, truth)
	if m.drift != nil {
		flipped = m.drift.observe(qerr)
	}
	return qerr, flipped
}

func (m *Model) noteAttempt(attempt int) {
	m.healthMu.Lock()
	m.health.Attempts = attempt
	m.healthMu.Unlock()
}

func (m *Model) noteFailure(err error) {
	m.healthMu.Lock()
	m.health.ConsecutiveFailures++
	m.health.LastError = err.Error()
	m.health.LastErrorAt = time.Now()
	if m.staleSince.IsZero() {
		m.staleSince = time.Now()
	}
	m.healthMu.Unlock()
}

func (m *Model) noteSuccess(builtAt time.Time) {
	m.healthMu.Lock()
	m.health.ConsecutiveFailures = 0
	m.health.LastError = ""
	m.health.LastErrorAt = time.Time{}
	m.health.LastSuccessAt = builtAt
	m.health.Degraded = false
	// A fresh build replaces whatever was recovered from disk, and its
	// accuracy history: the watchdog judges the new model on new
	// evidence, not the old model's drift.
	m.health.Recovered = false
	m.health.SnapshotSavedAt = time.Time{}
	m.staleSince = time.Time{}
	m.healthMu.Unlock()
	if m.drift != nil {
		m.drift.reset()
	}
}

// noteRecovered marks the model as serving a snapshot loaded from the
// durable store, anchored at the store's persist timestamp.
func (m *Model) noteRecovered(savedAt time.Time) {
	m.healthMu.Lock()
	m.health.Recovered = true
	m.health.SnapshotSavedAt = savedAt
	m.health.LastSuccessAt = savedAt
	m.healthMu.Unlock()
}

// noteStoreError records (or, with nil, clears) a snapshot-persist
// failure. Losing durability never blocks serving; it is surfaced here.
func (m *Model) noteStoreError(err error) {
	m.healthMu.Lock()
	if err != nil {
		m.health.StoreError = err.Error()
	} else {
		m.health.StoreError = ""
	}
	m.healthMu.Unlock()
}

func (m *Model) noteExhausted() {
	m.healthMu.Lock()
	m.health.Degraded = true
	m.healthMu.Unlock()
}

// build constructs the next snapshot from the spec. Models with a
// streaming write path learn from the ingestor's staging snapshot — the
// base dataset plus every ingested row — never from a stale reload; the
// spec's dataset source only describes the pre-ingest baseline.
func (m *Model) build() (*Snapshot, error) {
	if err := faults.Inject("serve.rebuild"); err != nil {
		return nil, fmt.Errorf("serve: build %s: %w", m.Name, err)
	}
	start := time.Now()
	var (
		db        *dataset.Database
		watermark uint64
		appliedAt int64
		err       error
	)
	if ing := m.ingestor(); ing != nil {
		db, watermark, appliedAt = ing.SnapshotDB()
	} else {
		db, err = cliutil.LoadDB(m.Spec.CSVDir, m.Spec.Dataset, m.Spec.Rows, m.Spec.Scale, m.Spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("serve: load %s: %w", m.Name, err)
		}
	}
	prm, err := eval.LearnPRM(db, "PRM", eval.LearnOptions{
		Kind:      learn.Tree,
		Criterion: learn.SSN,
		Budget:    m.Spec.BudgetBytes,
		Seed:      m.Spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: learn %s: %w", m.Name, err)
	}
	return &Snapshot{
		DB:         db,
		Estimators: m.estimators(db, prm),
		Generation: m.gen.Add(1),
		BuiltAt:    time.Now(),
		BuildTime:  time.Since(start),
		Watermark:  watermark,
		appliedAt:  appliedAt,
	}, nil
}

// ErrStaleGeneration rejects a remote snapshot whose generation is not
// strictly newer than the served one — distribution must never move a
// replica backwards.
var ErrStaleGeneration = errors.New("serve: snapshot generation not newer than served generation")

// ErrNotAdoptable rejects remote snapshots on models that own a local
// write path: an ingest model's parameters track its WAL, and adopting a
// foreign structure would orphan acknowledged rows.
var ErrNotAdoptable = errors.New("serve: model has a local ingest path; remote snapshots are refused")

// AdoptRemote publishes a remotely learned PRM as this model's serving
// snapshot at the given generation — the receiving half of rolling
// rollout. The snapshot keeps the served dataset (the expensive artifact
// is the learned structure, exactly what travels) and rebuilds the
// baseline estimators around the new primary, mirroring store recovery.
// Returns ErrStaleGeneration when gen does not advance the served
// generation and ErrNotAdoptable for ingest models.
func (m *Model) AdoptRemote(prm *core.PRM, gen int64) (*Snapshot, error) {
	if m.ingestor() != nil {
		return nil, ErrNotAdoptable
	}
	cur := m.Current()
	if cur == nil {
		return nil, fmt.Errorf("serve: model %s has no served snapshot to adopt onto", m.Name)
	}
	if gen <= cur.Generation {
		return nil, fmt.Errorf("%w: serving %d, offered %d", ErrStaleGeneration, cur.Generation, gen)
	}
	start := time.Now()
	snap := &Snapshot{
		DB:         cur.DB,
		Estimators: m.estimators(cur.DB, &eval.PRMEstimator{Label: "PRM", M: prm}),
		Generation: gen,
		BuiltAt:    time.Now(),
		BuildTime:  time.Since(start),
	}
	// Raise the local generation counter past the adopted generation so a
	// later local rebuild continues the sequence instead of colliding.
	for {
		old := m.gen.Load()
		if old >= gen || m.gen.CompareAndSwap(old, gen) {
			break
		}
	}
	if !m.publish(snap) {
		// A concurrent rebuild or a newer adoption won the pointer race.
		return nil, fmt.Errorf("%w: serving %d, offered %d", ErrStaleGeneration, m.Current().Generation, gen)
	}
	m.noteSuccess(snap.BuiltAt)
	m.persist(snap)
	return snap, nil
}

// estimators assembles a snapshot's estimator list around the primary:
// the AVI baseline always, SAMPLE and MHIST where the spec and schema
// allow. Shared by fresh builds and store recovery, so a recovered model
// serves the same breakdown a built one would.
func (m *Model) estimators(db *dataset.Database, prm baselines.Estimator) []baselines.Estimator {
	ests := []baselines.Estimator{prm, baselines.NewAVI(db)}

	// SAMPLE over the largest table (single-table queries only; requests
	// against other tables surface a per-estimator error in the
	// breakdown, they do not fail the request).
	var largest *dataset.Table
	for _, tn := range db.TableNames() {
		if t := db.Table(tn); largest == nil || t.Len() > largest.Len() {
			largest = t
		}
	}
	if largest != nil && len(largest.Attributes) > 0 {
		ests = append(ests, eval.SampleForBudget(largest, len(largest.Attributes), m.Spec.SampleBudget, m.Spec.Seed))
	}

	// MHIST over the leading attributes of single-table datasets, the
	// configuration the paper's first experiment set uses.
	if m.Spec.MHistAttrs > 0 && len(db.TableNames()) == 1 {
		t := db.Table(db.TableNames()[0])
		n := m.Spec.MHistAttrs
		if n > len(t.Attributes) {
			n = len(t.Attributes)
		}
		attrs := make([]string, n)
		for i := 0; i < n; i++ {
			attrs[i] = t.Attributes[i].Name
		}
		if mh, err := baselines.NewMHist(t, attrs, m.Spec.BudgetBytes); err == nil {
			ests = append(ests, mh)
		}
	}
	return ests
}

// recoverFromStore publishes the newest valid persisted generation: the
// dataset is reloaded (cheap — the expensive artifact is the learned
// structure, which is exactly what the store persists) and the decoded
// PRM is wrapped with freshly built baselines. Returns an error when the
// store has nothing valid for this model, in which case the caller
// builds from scratch.
func (m *Model) recoverFromStore(st *store.Store) (*Snapshot, *store.Recovered, error) {
	rec, err := st.Recover(m.Name)
	if err != nil {
		return nil, rec, err
	}
	start := time.Now()
	db, err := cliutil.LoadDB(m.Spec.CSVDir, m.Spec.Dataset, m.Spec.Rows, m.Spec.Scale, m.Spec.Seed)
	if err != nil {
		return nil, rec, fmt.Errorf("serve: recover %s: load dataset: %w", m.Name, err)
	}
	prm := &eval.PRMEstimator{Label: "PRM", M: rec.Model}
	// Continue the persisted generation sequence so the refreshing
	// rebuild publishes a strictly newer generation.
	m.gen.Store(rec.Generation)
	return &Snapshot{
		DB:         db,
		Estimators: m.estimators(db, prm),
		Generation: rec.Generation,
		BuiltAt:    rec.SavedAt,
		BuildTime:  time.Since(start),
	}, rec, nil
}

// persist writes the snapshot's primary model to the registry's durable
// store, if one is attached. Persist failures are reported to health and
// the registry's persist hook but never fail the build that produced the
// snapshot: serving beats durability.
func (m *Model) persist(snap *Snapshot) {
	if m.reg == nil {
		return
	}
	st := m.reg.snapshotStore()
	if st == nil {
		return
	}
	prm, ok := snap.Primary().(*eval.PRMEstimator)
	if !ok {
		return
	}
	// A tripped persist breaker skips the save fast instead of stalling
	// the rebuild goroutine behind a disk that keeps failing; the skip
	// still flows through health and the persist hook so the outage is
	// visible, but it does not Record against the breaker (no new
	// evidence either way).
	br := m.reg.persistBreaker()
	if berr := br.Allow(); berr != nil {
		err := fmt.Errorf("serve: persist %s generation %d skipped: %w", m.Name, snap.Generation, berr)
		m.noteStoreError(err)
		m.reg.logf("%v", err)
		m.reg.notePersist(err)
		return
	}
	err := st.Save(m.Name, snap.Generation, snap.BuiltAt, func(w io.Writer) error {
		return prm.M.Encode(w)
	})
	// Ingest models also persist the dataset-state artifact so recovery
	// replays only the WAL suffix past the snapshot, and the covered WAL
	// prefix can be reclaimed. Truncation happens only once both the
	// model snapshot and the state are durable — an unreclaimed WAL is
	// merely wasted disk, a reclaimed-but-unpersisted one is data loss.
	if err == nil && m.wal != nil {
		err = st.SaveState(m.Name, snap.Generation, snap.Watermark, snap.DB)
		if err == nil {
			if terr := m.wal.TruncateThrough(snap.Watermark); terr != nil {
				m.reg.logf("serve: truncate WAL of %s through %d: %v", m.Name, snap.Watermark, terr)
			}
		}
	}
	br.Record(err)
	m.noteStoreError(err)
	if err != nil {
		m.reg.logf("serve: persist %s generation %d: %v", m.Name, snap.Generation, err)
	}
	m.reg.notePersist(err)
}

// Rebuild kicks a background rebuild cycle and atomically swaps the
// served snapshot when a build succeeds. It returns false without doing
// anything if a cycle is already in flight. Failed attempts retry with
// exponential backoff per Spec.Retry; the served snapshot is never
// touched on failure, so a permanently failing rebuild leaves the model
// serving its last good generation, marked degraded in Health. onDone,
// if non-nil, runs once, after the cycle ends, with the outcome.
// onAttempt hooks, if given, run after every failed attempt (for retry
// metrics and logs); they never run on the successful attempt.
func (m *Model) Rebuild(onDone func(*Snapshot, error), onAttempt ...func(attempt int, err error, willRetry bool)) bool {
	if m.reg != nil && m.reg.closing() {
		return false
	}
	if !m.building.CompareAndSwap(false, true) {
		return false
	}
	policy := m.Spec.Retry.withDefaults()
	// The policy owns its jitter source: a non-zero Seed replays the
	// same delay sequence every cycle, keeping retry tests deterministic
	// under -count=10; the zero seed keeps production cycles decorrelated.
	seed := policy.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	var stop <-chan struct{}
	if m.reg != nil {
		m.reg.wg.Add(1)
		stop = m.reg.stopc
	}
	go func() {
		if m.reg != nil {
			defer m.reg.wg.Done()
		}
		defer m.building.Store(false)
		var lastErr error
		for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
			m.noteAttempt(attempt)
			snap, err := m.build()
			if err == nil {
				if ing := m.ingestor(); ing != nil {
					// Re-anchor the write path on the new structure before
					// it serves: later refits must maintain this model's
					// parameters, not the old one's.
					err = ing.Adopt(snap.Primary().(*eval.PRMEstimator).M)
				}
			}
			if err == nil {
				m.publish(snap)
				m.noteSuccess(snap.BuiltAt)
				// Persist before reporting done: a caller that shuts
				// down on onDone still gets a durable snapshot, and
				// Registry.Close waits for this goroutine, so the flush
				// always completes before exit.
				m.persist(snap)
				if ing := m.ingestor(); ing != nil {
					// Rows ingested while the rebuild ran stay pending;
					// settle the ledger at the snapshot's clone point and
					// fold the stragglers in with an immediate refit.
					ing.MarkPublished(snap.Watermark, snap.appliedAt)
					ing.TriggerRefit("rebuild")
				}
				if onDone != nil {
					onDone(snap, nil)
				}
				return
			}
			lastErr = err
			m.noteFailure(err)
			willRetry := attempt < policy.MaxAttempts
			for _, hook := range onAttempt {
				hook(attempt, err, willRetry)
			}
			if willRetry {
				select {
				case <-time.After(httpretry.Backoff(attempt, policy.BaseDelay, policy.MaxDelay, policy.JitterFrac, rng.Float64())):
				case <-stop:
					// Registry shutdown: abandon the cycle without
					// marking the model degraded — it still serves its
					// last good snapshot until the process exits.
					if onDone != nil {
						onDone(nil, fmt.Errorf("serve: rebuild %s: aborted by shutdown after attempt %d: %w", m.Name, attempt, lastErr))
					}
					return
				}
			}
		}
		m.noteExhausted()
		if onDone != nil {
			onDone(nil, fmt.Errorf("serve: rebuild %s: %d attempts exhausted: %w", m.Name, policy.MaxAttempts, lastErr))
		}
	}()
	return true
}

// Registry maps model names to served models. Registration builds
// synchronously so a registered model is always ready to serve — unless
// a durable store holds a valid snapshot, in which case registration
// publishes the recovered model immediately (cold-start recovery) and
// refreshes it with a background rebuild.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	models map[string]*Model
	// view is the atomically published read side of the model table:
	// Get/Single/Names on the request path load it without touching mu,
	// so model resolution is lock-free. Writers mutate models/order under
	// mu and republish via publishLocked.
	view      atomic.Pointer[regView]
	store     *store.Store
	onPersist func(err error)
	onIngest  func(rows, walBytes int)
	onRefit   func(d time.Duration, err error)
	// persistBr, when set, circuit-breaks the snapshot-save path: while
	// open, persists are skipped fast instead of stalling rebuild
	// goroutines behind a broken disk.
	persistBr *resilience.Breaker
	// refitGate, when set, is consulted by every ingest refit trigger
	// (true = allow); the server points it at the refit breaker.
	refitGate func() bool
	logger    func(format string, args ...any)

	// Shutdown plumbing: stopc aborts retry waits, wg tracks every
	// rebuild goroutine (including its snapshot flush).
	stopc     chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// regView is one immutable generation of the registry's model table.
// Registration is rare and lookups are per-request, so the table is
// copied on write and read through one atomic pointer load.
type regView struct {
	order  []string
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		models: make(map[string]*Model),
		stopc:  make(chan struct{}),
	}
	r.view.Store(&regView{models: make(map[string]*Model)})
	return r
}

// publishLocked republishes the read view from the authoritative
// mu-guarded table. Caller holds r.mu.
func (r *Registry) publishLocked() {
	v := &regView{
		order:  append([]string(nil), r.order...),
		models: make(map[string]*Model, len(r.models)),
	}
	for name, m := range r.models {
		v.models[name] = m
	}
	r.view.Store(v)
}

// install registers m under name, publishing the updated view; it fails
// on a duplicate without mutating anything.
func (r *Registry) install(name string, m *Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	r.models[name] = m
	r.order = append(r.order, name)
	r.publishLocked()
	return nil
}

// UseStore attaches a durable snapshot store. Models registered after
// this call recover from it at Add time and persist every successful
// build into it. Attach before the first Add.
func (r *Registry) UseStore(st *store.Store) {
	r.mu.Lock()
	r.store = st
	r.mu.Unlock()
}

// SetLogf routes the registry's own events (recovery, persist failures,
// background refresh outcomes) somewhere other than log.Printf.
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	r.mu.Lock()
	r.logger = logf
	r.mu.Unlock()
}

// setOnPersist installs the persist-outcome hook (the server wires it to
// its metrics).
func (r *Registry) setOnPersist(hook func(err error)) {
	r.mu.Lock()
	r.onPersist = hook
	r.mu.Unlock()
}

// setOnIngest and setOnRefit install the write-path metric hooks; the
// server wires them to its ingest counters and refit histogram.
func (r *Registry) setOnIngest(hook func(rows, walBytes int)) {
	r.mu.Lock()
	r.onIngest = hook
	r.mu.Unlock()
}

func (r *Registry) setOnRefit(hook func(d time.Duration, err error)) {
	r.mu.Lock()
	r.onRefit = hook
	r.mu.Unlock()
}

// setPersistBreaker installs the circuit breaker guarding snapshot saves.
func (r *Registry) setPersistBreaker(b *resilience.Breaker) {
	r.mu.Lock()
	r.persistBr = b
	r.mu.Unlock()
}

func (r *Registry) persistBreaker() *resilience.Breaker {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.persistBr
}

// setRefitGate installs the refit admission gate (true = allow now).
func (r *Registry) setRefitGate(gate func() bool) {
	r.mu.Lock()
	r.refitGate = gate
	r.mu.Unlock()
}

// refitAllowedNow consults the gate; no gate means always allowed.
func (r *Registry) refitAllowedNow() bool {
	r.mu.RLock()
	gate := r.refitGate
	r.mu.RUnlock()
	return gate == nil || gate()
}

func (r *Registry) noteIngest(rows, walBytes int) {
	r.mu.RLock()
	hook := r.onIngest
	r.mu.RUnlock()
	if hook != nil {
		hook(rows, walBytes)
	}
}

func (r *Registry) noteRefit(d time.Duration, err error) {
	r.mu.RLock()
	hook := r.onRefit
	r.mu.RUnlock()
	if hook != nil {
		hook(d, err)
	}
}

func (r *Registry) snapshotStore() *store.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

func (r *Registry) notePersist(err error) {
	r.mu.RLock()
	hook := r.onPersist
	r.mu.RUnlock()
	if hook != nil {
		hook(err)
	}
}

func (r *Registry) logf(format string, args ...any) {
	r.mu.RLock()
	logger := r.logger
	r.mu.RUnlock()
	if logger == nil {
		logger = log.Printf
	}
	logger(format, args...)
}

func (r *Registry) closing() bool {
	select {
	case <-r.stopc:
		return true
	default:
		return false
	}
}

// Close begins graceful shutdown: in-flight rebuild retry waits abort,
// new rebuilds are refused, and Close blocks until every rebuild
// goroutine — including its snapshot flush to the durable store — has
// finished, or ctx expires.
func (r *Registry) Close(ctx context.Context) error {
	r.closeOnce.Do(func() { close(r.stopc) })
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		// With every rebuild drained, stop the write paths: the refit
		// loops first (they may still publish through the WAL-owning
		// persist path), then the logs themselves. Ingest calls after
		// this observe the closed ingestor and fail cleanly.
		r.mu.RLock()
		models := make([]*Model, 0, len(r.order))
		for _, name := range r.order {
			models = append(models, r.models[name])
		}
		r.mu.RUnlock()
		for _, m := range models {
			if ing := m.ingestor(); ing != nil {
				ing.Close()
			}
			if m.wal != nil {
				if err := m.wal.Close(); err != nil {
					r.logf("serve: close WAL of %s: %v", m.Name, err)
				}
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: registry close: %w", ctx.Err())
	}
}

// Add registers the model described by spec under name (default: the
// dataset name). With a durable store attached, Add first tries
// cold-start recovery: the newest valid persisted generation is
// published immediately (health reports recovered plus the snapshot's
// age) and a background rebuild refreshes it. Otherwise — no store, no
// valid snapshot, or a dataset the snapshot cannot be paired with — the
// first build runs synchronously, so a registered model is always ready
// to serve.
func (r *Registry) Add(name string, spec BuildSpec) (*Model, error) {
	spec = spec.withDefaults()
	if name == "" {
		name = spec.Dataset
	}
	if name == "" {
		return nil, fmt.Errorf("serve: model needs a name or a dataset")
	}
	r.mu.Lock()
	if _, dup := r.models[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	r.mu.Unlock()

	m := &Model{Name: name, Spec: spec, reg: r, drift: newDriftWatch(spec.Drift)}

	if spec.Ingest.Enabled {
		// The streaming write path has its own recovery dance (WAL
		// repair, state recovery, suffix replay) and publishes its own
		// initial snapshot; it subsumes the plain paths below.
		if err := m.setupIngest(r); err != nil {
			return nil, err
		}
		if err := r.install(name, m); err != nil {
			if ing := m.ingestor(); ing != nil {
				ing.Close()
			}
			m.wal.Close()
			return nil, err
		}
		return m, nil
	}

	recovered := false
	if st := r.snapshotStore(); st != nil {
		snap, rec, err := m.recoverFromStore(st)
		if err == nil {
			m.cur.Store(snap)
			m.noteRecovered(rec.SavedAt)
			recovered = true
			r.logf("serve: model %s recovered from store (generation %d, file %s, age %s); background rebuild refreshing it",
				name, rec.Generation, rec.File, time.Since(rec.SavedAt).Round(time.Second))
		} else {
			r.logf("serve: model %s not recoverable from store (%v); building from scratch", name, err)
		}
		if rec != nil {
			for _, q := range rec.Quarantined {
				r.logf("serve: model %s: quarantined corrupt snapshot %s", name, q)
			}
		}
	}
	if !recovered {
		snap, err := m.build()
		if err != nil {
			return nil, err
		}
		m.cur.Store(snap)
		m.noteSuccess(snap.BuiltAt)
		m.persist(snap)
	}

	if err := r.install(name, m); err != nil {
		return nil, err
	}

	if recovered {
		// Refresh the recovered snapshot in the background: the model
		// serves the persisted generation now and hot-swaps to a fresh
		// build the moment it lands.
		m.Rebuild(func(snap *Snapshot, err error) {
			if err != nil {
				r.logf("serve: refresh of recovered model %s failed; still serving recovered snapshot: %v", name, err)
				return
			}
			r.logf("serve: recovered model %s refreshed (generation %d in %v)", name, snap.Generation, snap.BuildTime.Round(time.Millisecond))
		})
	}
	return m, nil
}

// Get returns the named model. It reads the published view — no lock —
// because it sits on the request path of every estimate.
func (r *Registry) Get(name string) (*Model, bool) {
	m, ok := r.view.Load().models[name]
	return m, ok
}

// Names returns the registered model names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.view.Load().order...)
}

// Single returns the only registered model, if exactly one exists — the
// default target for requests that name no model. Lock-free, like Get.
func (r *Registry) Single() (*Model, bool) {
	v := r.view.Load()
	if len(v.order) != 1 {
		return nil, false
	}
	return v.models[v.order[0]], true
}

// sortedEstimatorNames lists a snapshot's estimators by name, sorted — the
// stable form used in cache keys and /v1/models output.
func sortedEstimatorNames(s *Snapshot) []string {
	names := make([]string, len(s.Estimators))
	for i, e := range s.Estimators {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names
}
