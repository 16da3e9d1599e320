package obs

import (
	"fmt"
	"strings"
	"time"
)

// SpanDump is the JSON-friendly snapshot of one span: what the estimation
// service returns for /v1/estimate?trace=1 and the CLIs print with -trace.
// Durations are reported in microseconds, matching the service's latency
// fields.
type SpanDump struct {
	Name           string            `json:"name"`
	DurationMicros int64             `json:"duration_micros"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*SpanDump       `json:"children,omitempty"`
}

// Dump snapshots the span subtree. Safe to call while other goroutines
// still write to the tracer; open spans report their running duration.
func (s *Span) Dump() *SpanDump {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.dumpLocked()
}

func (s *Span) dumpLocked() *SpanDump {
	d := &SpanDump{
		Name:           s.name,
		DurationMicros: s.durationLocked().Microseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.dumpLocked())
	}
	return d
}

// Visit calls fn for every span in the subtree (preorder) with its name
// and duration, running for spans still open. The service uses it to feed
// a cache miss's inference spans into its stage histograms. Visit holds
// the tracer's lock while it walks, so fn must not call into the tracer.
func (s *Span) Visit(fn func(name string, dur time.Duration)) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.visitLocked(fn)
}

func (s *Span) visitLocked(fn func(name string, dur time.Duration)) {
	fn(s.name, s.durationLocked())
	for _, c := range s.children {
		c.visitLocked(fn)
	}
}

// Visit calls fn for every dump in the subtree (preorder).
func (d *SpanDump) Visit(fn func(*SpanDump)) {
	if d == nil {
		return
	}
	fn(d)
	for _, c := range d.Children {
		c.Visit(fn)
	}
}

// Tree renders the dump as an indented text tree, one span per line with
// its duration and annotations:
//
//	estimate                      812µs
//	  closure                      23µs  cache_hit=true tuple_vars=3
//	  infer                       771µs  elim=7 max_cells=192
func (d *SpanDump) Tree() string {
	var b strings.Builder
	d.tree(&b, 0)
	return b.String()
}

func (d *SpanDump) tree(b *strings.Builder, depth int) {
	if d == nil {
		return
	}
	label := strings.Repeat("  ", depth) + d.Name
	fmt.Fprintf(b, "%-32s %9s", label, time.Duration(d.DurationMicros)*time.Microsecond)
	// Render attrs in the order Dump recorded them is lost in the map;
	// sort for determinism.
	for _, k := range sortedKeys(d.Attrs) {
		fmt.Fprintf(b, "  %s=%s", k, d.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range d.Children {
		c.tree(b, depth+1)
	}
}

func sortedKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; attr sets are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Tree renders the span subtree as text (see SpanDump.Tree).
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	return s.Dump().Tree()
}
