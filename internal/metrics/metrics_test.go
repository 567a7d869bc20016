package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("inflight", "in-flight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("gauge = %d, want 42", got)
	}
}

func TestRegistryIdempotentCreation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "hits")
	b := r.Counter("hits_total", "hits")
	if a != b {
		t.Error("same name must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters diverged")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum = %g, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP lat_seconds latency",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryValueIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []float64{1})
	h.Observe(1) // le="1" is <=, so exactly 1 belongs in the first bucket
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `h_bucket{le="1"} 1`) {
		t.Errorf("observation at the bound must land in its bucket:\n%s", b.String())
	}
}

func TestLabeledSeriesShareOneHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter(`codes_total{code="200"}`, "responses").Inc()
	r.Counter(`codes_total{code="429"}`, "responses").Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE codes_total counter") != 1 {
		t.Errorf("labeled series must share one TYPE header:\n%s", out)
	}
	for _, want := range []string{`codes_total{code="200"} 1`, `codes_total{code="429"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentObservations runs under -race in CI: every mutation path is
// exercised from many goroutines at once.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "lat", DefBuckets())
	c := r.Counter("n_total", "n")
	g := r.Gauge("inflight", "g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(j%100) / 1000)
				c.Inc()
				g.Inc()
				g.Dec()
				// Lazy per-label creation races against rendering.
				r.Counter(`codes_total{code="200"}`, "responses").Inc()
			}
		}(i)
	}
	var renderErr error
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			renderErr = err
		}
	}
	wg.Wait()
	if renderErr != nil {
		t.Fatal(renderErr)
	}
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}
