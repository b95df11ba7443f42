// Package obs is the repo's zero-dependency observability layer: a
// process-global metrics registry (counters, gauges, fixed-bucket
// histograms with quantile snapshots), hierarchical wall-clock spans that
// render as an indented trace tree, and optional HTTP wiring for
// /metrics, /debug/metrics, /debug/spans and /debug/pprof.
//
// The paper's edge evaluation is a measurement exercise — mean time
// consumption (MTC) and mean power consumption (MPC) per platform — so the
// pipeline's stages are instrumented here rather than with ad-hoc prints:
// training publishes per-epoch gauges, clustering publishes convergence
// counters, the LOSO harness opens one span per fold, and the edge monitor
// feeds a per-horizon inference-latency histogram. Binaries print
// SpanTree() and MetricsDump() at exit to produce a Table-II-style
// breakdown of where time went.
//
// Counters and gauges are safe for concurrent use and allocation-free on
// the hot path; hold the handle returned by Counter/Gauge/Histogram in a
// package-level variable instead of re-looking it up per event.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value (or accumulated) float64 measurement.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge (used for cumulative quantities such
// as energy in joules).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with atomic per-bucket counts.
// Bounds are inclusive upper bucket edges; observations above the last
// bound land in an overflow bucket. Quantiles are estimated by linear
// interpolation inside the covering bucket, clamped to the observed
// min/max, which is exact enough for latency-style distributions.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
	count   atomic.Int64
	sum     Gauge
	min     atomic.Uint64 // float64 bits; valid only when count > 0
	max     atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. It is concurrency-safe and allocation-free.
// Non-finite values (NaN, ±Inf) are dropped: one NaN would otherwise
// poison sum/min/max and make every later Quantile call return garbage.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if math.Float64frombits(old) <= v || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min and Max return the extreme observed values (0 when empty).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution. Within the covering bucket the value is linearly
// interpolated; results are clamped to the observed min/max. An empty
// histogram deterministically returns 0 for every q, and a NaN q is
// treated as 0 (the minimum) rather than propagating.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := h.Min()
			if i > 0 {
				lower = math.Max(lower, h.bounds[i-1])
			}
			upper := h.Max()
			if i < len(h.bounds) {
				upper = math.Min(upper, h.bounds[i])
			}
			if upper < lower {
				upper = lower
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return h.Max()
}

// CumulativeCount returns the number of observations in buckets whose
// upper edge is ≤ le — i.e. observations known to be ≤ le at bucket
// resolution. Used for latency-SLO "good event" counting, where le is
// chosen to coincide with a bucket edge.
func (h *Histogram) CumulativeCount(le float64) int64 {
	var n int64
	for i, b := range h.bounds {
		if b > le {
			return n
		}
		n += h.buckets[i].Load()
	}
	return n
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor: {start, start·f, start·f², …}.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bucket bounds:
// {start, start+width, …}.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("obs: LinearBuckets needs width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. Most code uses the process-global default registry via
// the package-level Counter/Gauge/Histogram functions.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	hvecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry (mainly for tests; production code
// shares the default registry so one dump covers the whole process).
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		cvecs:    map[string]*CounterVec{},
		gvecs:    map[string]*GaugeVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls return the existing histogram and
// ignore bounds, so call sites can share a handle without coordinating.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named labeled counter family, creating it with
// the given label names on first use. Later calls return the existing vec
// and ignore labels, mirroring Histogram's bounds behaviour.
func (r *Registry) CounterVec(name string, labels []string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cvecs[name]
	if !ok {
		v = newCounterVec(name, labels)
		r.cvecs[name] = v
	}
	return v
}

// GaugeVec returns the named labeled gauge family, creating it on first
// use.
func (r *Registry) GaugeVec(name string, labels []string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gvecs[name]
	if !ok {
		v = newGaugeVec(name, labels)
		r.gvecs[name] = v
	}
	return v
}

// HistogramVec returns the named labeled histogram family, creating it
// with the given shared bucket bounds on first use.
func (r *Registry) HistogramVec(name string, bounds []float64, labels []string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.hvecs[name]
	if !ok {
		v = newHistogramVec(name, bounds, labels)
		r.hvecs[name] = v
	}
	return v
}

// Dump renders every metric as sorted plain text, one per line — the
// payload of the /debug/metrics endpoint and of the end-of-run snapshot
// the binaries print. The output is deterministically ordered (sorted by
// metric name, vec children by label values) so run-to-run CI log diffs
// are stable.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %g", name, g.Value()))
	}
	histLine := func(name string, h *Histogram) string {
		return fmt.Sprintf(
			"%s count=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
			name, h.Count(), h.Mean(), h.Min(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
	for name, h := range r.hists {
		lines = append(lines, histLine(name, h))
	}
	for name, v := range r.cvecs {
		v.each(func(values []string, c *Counter) {
			lines = append(lines, fmt.Sprintf("%s %d", name+labelPairs(v.labels, values), c.Value()))
		})
	}
	for name, v := range r.gvecs {
		v.each(func(values []string, g *Gauge) {
			lines = append(lines, fmt.Sprintf("%s %g", name+labelPairs(v.labels, values), g.Value()))
		})
	}
	for name, v := range r.hvecs {
		v.each(func(values []string, h *Histogram) {
			lines = append(lines, histLine(name+labelPairs(v.labels, values), h))
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// def is the process-global registry used by all instrumented packages.
var def = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return def }

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return def.Counter(name) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string) *Gauge { return def.Gauge(name) }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(name string, bounds []float64) *Histogram { return def.Histogram(name, bounds) }

// GetCounterVec returns a labeled counter family from the default registry.
func GetCounterVec(name string, labels ...string) *CounterVec { return def.CounterVec(name, labels) }

// GetGaugeVec returns a labeled gauge family from the default registry.
func GetGaugeVec(name string, labels ...string) *GaugeVec { return def.GaugeVec(name, labels) }

// GetHistogramVec returns a labeled histogram family from the default
// registry.
func GetHistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	return def.HistogramVec(name, bounds, labels)
}

// MetricsDump renders the default registry as plain text.
func MetricsDump() string { return Default().Dump() }
