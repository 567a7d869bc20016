// Package metrics is the serving stack's observability substrate: atomic
// counters, gauges, and fixed-bucket histograms collected in a registry
// that renders the Prometheus text exposition format. Standard library
// only — the server must not grow a client_golang dependency for three
// metric kinds.
//
// Metric names may carry a fixed label set in the name itself
// ("coldtall_http_requests_total{code=\"200\"}"); the registry groups such
// series under one HELP/TYPE header per base name, which is what the
// exposition format requires. Creation is idempotent: asking for an
// existing name returns the existing metric, so handlers can create
// per-label series lazily on the request path.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (negative n is ignored — counters only go
// up; use a Gauge for values that fall).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that goes up and down (in-flight requests, pool
// occupancy).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets by upper bound,
// Prometheus-style: bucket i counts observations <= bounds[i], plus an
// implicit +Inf bucket, a running sum, and a total count. Observe is
// lock-free (one atomic add per bucket level crossed plus a CAS loop for
// the float sum), so it sits on the request hot path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are latency buckets in seconds suited to this service: cache
// hits land in the sub-millisecond buckets, warm evaluations in the
// milliseconds, cold full-grid sweeps in the seconds.
func DefBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// metric is one registered series.
type metric struct {
	name string // full series name, possibly with {labels}
	help string
	kind string // "counter", "gauge", "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// baseName strips a label suffix: `requests_total{code="200"}` ->
// `requests_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Registry holds the registered metrics in registration order and renders
// them in the Prometheus text exposition format. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	ordered []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns the existing metric for name or registers a new one built
// by mk. It panics if the name is already registered as a different kind —
// that is a programming error, not an operational condition.
func (r *Registry) lookup(name, help, kind string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, kind
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. The name may carry a fixed label set ({code="200"}).
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, "counter", func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, "gauge", func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given upper bounds (ascending; DefBuckets when nil).
// Histogram names must not carry labels — the buckets are the labels.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if strings.IndexByte(name, '{') >= 0 {
		panic(fmt.Sprintf("metrics: histogram %q must not carry labels", name))
	}
	return r.lookup(name, help, "histogram", func() *metric {
		if bounds == nil {
			bounds = DefBuckets()
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		return &metric{h: h}
	}).h
}

// fmtFloat renders a bucket bound the way Prometheus expects (+Inf spelled
// out).
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the text exposition
// format, one HELP/TYPE header per base name (series sharing a base name —
// label variants — are grouped under the first one's header).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ordered := make([]*metric, len(r.ordered))
	copy(ordered, r.ordered)
	r.mu.Unlock()

	seen := make(map[string]bool)
	for _, m := range ordered {
		base := baseName(m.name)
		if !seen[base] {
			seen[base] = true
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, m.help, base, m.kind); err != nil {
				return err
			}
		}
		switch m.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value()); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value()); err != nil {
				return err
			}
		case "histogram":
			h := m.h
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, fmtFloat(bound), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", m.name, h.Sum(), m.name, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}
