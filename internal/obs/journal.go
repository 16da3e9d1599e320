// The request journal: a fixed-size lock-free ring of wide events — one
// structured record per sampled request carrying everything worth asking
// about it (query shape, model, generation, tier, per-stage timings,
// cache path, outcome). The service browses it at /debug/requests, the
// latency histograms link into it through exemplars, and the request log
// joins on the same id, so one identifier connects all three views.
//
// Head-sampling keeps it cheap and keeps the interesting requests:
// errors, degraded-tier answers, and slow requests are always recorded;
// ordinary fast successes are sampled one-in-N (N=0 records none of
// them). The sampling decision is made before an event is even
// constructed, so an unsampled request allocates nothing — the guarantee
// the serve package's AllocsPerRun guard pins down.
//
// Every method is nil-receiver safe: a nil *Journal issues ids from a
// process-wide counter and records nothing, so callers thread an
// optional journal blindly.
package obs

import (
	"sync/atomic"
	"time"
)

// Sample reasons, in priority order.
const (
	SampleError    = "error"    // non-2xx outcome
	SampleDegraded = "degraded" // answered by a fallback tier
	SampleSlow     = "slow"     // latency over the slow threshold
	SampleUniform  = "sampled"  // 1-in-N of ordinary successes
)

// Stage is one named stage timing inside an event.
type Stage struct {
	Name   string `json:"name"`
	Micros int64  `json:"micros"`
}

// Event is one wide request record. Events are immutable once recorded;
// the ring stores pointers, so readers never see a torn entry.
type Event struct {
	ID         uint64    `json:"id"`
	TraceID    string    `json:"trace_id"`
	Time       time.Time `json:"time"`
	Kind       string    `json:"kind"` // estimate | batch | ingest | feedback
	Model      string    `json:"model,omitempty"`
	Generation int64     `json:"generation,omitempty"`
	Query      string    `json:"query,omitempty"`
	Status     int       `json:"status"`
	Tier       string    `json:"tier,omitempty"`
	Cache      string    `json:"cache,omitempty"` // hit | miss | dedup
	Error      string    `json:"error,omitempty"`
	Items      int       `json:"items,omitempty"` // batch/ingest sizes
	Micros     int64     `json:"micros"`
	Stages     []Stage   `json:"stages,omitempty"`
	Reason     string    `json:"sample_reason"`
}

// JournalConfig tunes a journal.
type JournalConfig struct {
	// Size is the ring capacity, rounded up to a power of two
	// (default 1024).
	Size int
	// SlowThreshold marks a request slow enough to always sample
	// (default 25ms).
	SlowThreshold time.Duration
	// SampleEvery records one in N ordinary fast successes (0 = none;
	// errors, degraded answers, and slow requests are always recorded).
	SampleEvery int
}

// Journal is the ring. Writers are lock-free: one atomic fetch-add
// claims a slot, one atomic pointer store publishes the event.
type Journal struct {
	mask uint64
	slot []atomic.Pointer[Event]

	slowUS      int64
	sampleEvery atomic.Uint64 // brownout control retunes this live

	nextID  atomic.Uint64
	uniform atomic.Uint64 // 1-in-N selector for ordinary successes
	head    atomic.Uint64 // next slot sequence

	sampled  [4]atomic.Int64 // by reason index below
	recorded atomic.Int64
}

// fallbackID issues trace ids when no journal is configured, so request
// logs stay joinable even with journaling disabled.
var fallbackID atomic.Uint64

// NewJournal builds a journal. A nil return never happens; disable
// journaling by passing the nil *Journal around instead.
func NewJournal(cfg JournalConfig) *Journal {
	size := cfg.Size
	if size <= 0 {
		size = 1024
	}
	pow := 1
	for pow < size {
		pow <<= 1
	}
	slow := cfg.SlowThreshold
	if slow <= 0 {
		slow = 25 * time.Millisecond
	}
	j := &Journal{
		mask:   uint64(pow - 1),
		slot:   make([]atomic.Pointer[Event], pow),
		slowUS: slow.Microseconds(),
	}
	j.sampleEvery.Store(uint64(cfg.SampleEvery))
	return j
}

// SetSampleEvery retunes uniform sampling to one-in-n (n <= 0 disables
// uniform sampling; errors, degraded, and slow are still always kept).
// Safe concurrently and on a nil journal.
func (j *Journal) SetSampleEvery(n int) {
	if j == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	j.sampleEvery.Store(uint64(n))
}

// NextID issues the next request id. Ids are dense and monotonic per
// process, never zero.
func (j *Journal) NextID() uint64 {
	if j == nil {
		return fallbackID.Add(1)
	}
	return j.nextID.Add(1)
}

// reasonIndex maps a sample reason to its counter slot.
func reasonIndex(reason string) int {
	switch reason {
	case SampleError:
		return 0
	case SampleDegraded:
		return 1
	case SampleSlow:
		return 2
	default:
		return 3
	}
}

// Sample decides whether a request with this outcome should be recorded,
// and why. It allocates nothing and is safe on a nil journal (never
// sample). degraded means a fallback tier produced the answer.
func (j *Journal) Sample(status int, degraded bool, d time.Duration) (string, bool) {
	if j == nil {
		return "", false
	}
	switch {
	case status >= 400:
		return SampleError, true
	case degraded:
		return SampleDegraded, true
	case d.Microseconds() >= j.slowUS:
		return SampleSlow, true
	}
	if n := j.sampleEvery.Load(); n > 0 && j.uniform.Add(1)%n == 0 {
		return SampleUniform, true
	}
	return "", false
}

// Record publishes ev into the ring, overwriting the oldest entry when
// full. ev must not be mutated afterwards.
func (j *Journal) Record(ev *Event) {
	if j == nil || ev == nil {
		return
	}
	j.sampled[reasonIndex(ev.Reason)].Add(1)
	j.recorded.Add(1)
	idx := j.head.Add(1) - 1
	j.slot[idx&j.mask].Store(ev)
}

// Events returns up to max recorded events, newest first. keep filters
// events (nil keeps all). The snapshot is weakly consistent: concurrent
// writers may replace old entries while we walk.
func (j *Journal) Events(max int, keep func(*Event) bool) []*Event {
	if j == nil {
		return nil
	}
	size := int(j.mask + 1)
	if max <= 0 || max > size {
		max = size
	}
	head := j.head.Load()
	out := make([]*Event, 0, max)
	for i := uint64(0); i < uint64(size) && len(out) < max; i++ {
		pos := head - 1 - i
		if pos+1 == 0 { // walked past the beginning of time
			break
		}
		ev := j.slot[pos&j.mask].Load()
		if ev == nil {
			continue
		}
		if keep == nil || keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// JournalStats summarizes sampling activity.
type JournalStats struct {
	Capacity  int   `json:"capacity"`
	IDsIssued int64 `json:"ids_issued"`
	Recorded  int64 `json:"recorded"`
	Errors    int64 `json:"sampled_error"`
	Degraded  int64 `json:"sampled_degraded"`
	Slow      int64 `json:"sampled_slow"`
	Uniform   int64 `json:"sampled_uniform"`
}

// Stats snapshots the counters (zero value on nil).
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	return JournalStats{
		Capacity:  int(j.mask + 1),
		IDsIssued: int64(j.nextID.Load()),
		Recorded:  j.recorded.Load(),
		Errors:    j.sampled[0].Load(),
		Degraded:  j.sampled[1].Load(),
		Slow:      j.sampled[2].Load(),
		Uniform:   j.sampled[3].Load(),
	}
}

// TraceID renders a journal id in the fixed 16-hex-digit form shared by
// the X-PRM-Trace response header (the only trace header; the gate relays
// it), the request log's trace_id, journal events, and exemplars.
func TraceID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
