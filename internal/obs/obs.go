// Package obs is the repository's lightweight tracing and instrumentation
// layer. A Tracer collects a tree of Spans — named stages with monotonic
// wall-clock durations and key/value annotations — that the estimate path
// (parse → shape-cache lookup → upward-closure build → variable
// elimination) and the structure learner emit through.
//
// The design goal is zero cost when disabled: every Span method is
// nil-safe, and Start on a context that carries no span is a single
// context Value lookup returning nil. Hot paths therefore instrument
// unconditionally and pay nothing unless a caller installed a tracer
// (prmquery -trace, prmbench -trace, or the estimation service, which
// builds a request's span tree only for ?trace=1 and otherwise traces
// just a cache miss's inference to feed the closure and infer stage
// histograms).
//
// Spans are safe for concurrent use: all mutation locks the owning
// tracer, so stages running in worker goroutines may annotate and attach
// children concurrently.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Tracer owns one span tree. The zero value is not usable; construct with
// NewTracer.
type Tracer struct {
	mu   sync.Mutex
	root *Span
}

// NewTracer returns a tracer whose root span starts now.
func NewTracer(rootName string) *Tracer {
	t := &Tracer{}
	t.root = &Span{tracer: t, name: rootName, start: time.Now()}
	return t
}

// Root returns the root span (never nil).
func (t *Tracer) Root() *Span { return t.root }

// End closes the root span; child spans left open keep their running
// durations until Dump snapshots them.
func (t *Tracer) End() { t.root.End() }

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so a span never holds live references into the traced code.
type Attr struct {
	Key   string
	Value string
}

// Int renders an integer attr.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Int64 renders a 64-bit integer attr.
func Int64(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// Float renders a float attr with enough precision to be re-parsed.
func Float(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', 6, 64)}
}

// Bool renders a boolean attr.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(v)} }

// Str is a string attr.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one timed stage in a trace. A nil *Span is a valid no-op
// receiver for every method, which is how disabled tracing stays free.
type Span struct {
	tracer   *Tracer
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Start opens a child span. Returns nil (still usable) when s is nil.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tracer: s.tracer, name: name, start: time.Now()}
	s.tracer.mu.Lock()
	s.children = append(s.children, child)
	s.tracer.mu.Unlock()
	return child
}

// End fixes the span's duration. Subsequent Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tracer.mu.Unlock()
}

// Set appends annotations to the span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tracer.mu.Unlock()
}

// Event records an instantaneous occurrence as a zero-duration child span
// — the learner uses one per accepted hill-climbing move.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	child := &Span{tracer: s.tracer, name: name, start: time.Now(), ended: true, attrs: attrs}
	s.tracer.mu.Lock()
	s.children = append(s.children, child)
	s.tracer.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration: final if ended, running otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.durationLocked()
}

func (s *Span) durationLocked() time.Duration {
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// NewContext returns ctx with sp as the current span. Passing a nil span
// returns ctx unchanged, so callers can thread an optional span blindly.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child of the context's current span and returns a context
// carrying the child. When ctx has no span — the disabled case — it
// returns (ctx, nil) after a single Value lookup, with no allocation.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Start(name)
	return context.WithValue(ctx, ctxKey{}, child), child
}

// Detach returns ctx stripped of its current span while preserving
// cancellation and deadlines — for loops (the non-key-join value sum, a
// group-by sweep) whose per-iteration spans would flood the trace; the
// enclosing span records aggregate counts instead.
func Detach(ctx context.Context) context.Context {
	if FromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, (*Span)(nil))
}
