package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryIdempotent: registering the same family twice returns the
// same underlying series, and mismatched re-registration panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "other help is ignored")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", c2.Value())
	}

	v1 := r.CounterVec("y_total", "h", "tier")
	v2 := r.CounterVec("y_total", "h", "tier")
	if v1.With("exact") != v2.With("exact") {
		t.Fatal("vec re-registration returned a different series")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

// TestCounterGauge: basic arithmetic and concurrent adds.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if math.Abs(g.Value()-4000) > 1e-9 {
		t.Errorf("gauge = %v, want 4000", g.Value())
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge after Set = %v, want -2.5", g.Value())
	}
}

// TestHistogram: observations land in the right buckets regardless of
// stripe, the snapshot sums stripes, and exemplars attach to buckets.
func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				h.Observe(0.0005 + seed*1e-7) // first bucket
				h.Observe(0.05)               // third bucket
				h.Observe(1.0)                // +Inf bucket
				h.Observe(5.0)                // +Inf bucket
			}
		}(float64(w))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != 8000 {
		t.Fatalf("count = %d, want 8000", snap.Count)
	}
	if snap.Buckets[0] != 2000 || snap.Buckets[1] != 0 || snap.Buckets[2] != 2000 || snap.Buckets[3] != 4000 {
		t.Fatalf("buckets = %v, want [2000 0 2000 4000]", snap.Buckets)
	}
	wantSum := 2000*0.0005 + 2000*0.05 + 2000*1.0 + 2000*5.0
	if math.Abs(snap.Sum-wantSum) > 1.0 { // seed jitter adds ~2000*7e-7
		t.Errorf("sum = %v, want ~%v", snap.Sum, wantSum)
	}

	h.ObserveExemplar(0.05, "00000000000000ff", 12345)
	if ex := h.exemplarFor(2); ex == nil || ex.TraceID != "00000000000000ff" {
		t.Errorf("bucket 2 exemplar = %+v, want trace 00000000000000ff", ex)
	}
}

// TestWritePrometheus: the classic rendering has HELP/TYPE per family,
// escaped labels, cumulative monotone histogram buckets, and no EOF
// marker; the OpenMetrics rendering adds exemplars and # EOF.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", `back\slash and
newline`).Add(3)
	r.CounterVec("b_total", "labeled", "model").With(`we"ird\lab` + "\nel").Inc()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, "deadbeefdeadbeef", 1e9)
	r.GaugeFunc("up", "scrape-time", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b, false); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP a_total back\\\\slash and\\nnewline\n",
		"# TYPE a_total counter\na_total 3\n",
		`b_total{model="we\"ird\\lab\nel"} 1`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_count 2",
		"up 42\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("classic rendering lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "# EOF") || strings.Contains(text, "trace_id") {
		t.Errorf("classic rendering leaked OpenMetrics syntax:\n%s", text)
	}

	b.Reset()
	if err := r.WritePrometheus(&b, true); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	if !strings.Contains(om, `# {trace_id="deadbeefdeadbeef"} 0.05`) {
		t.Errorf("OpenMetrics rendering lacks the exemplar:\n%s", om)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics rendering does not end with # EOF:\n%s", om)
	}
	if !strings.Contains(om, "# TYPE a counter") {
		t.Errorf("OpenMetrics counter family should drop the _total suffix:\n%s", om)
	}
}
