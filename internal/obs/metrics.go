// Package obs is the repo's zero-dependency observability layer: a
// process-global metrics registry (counters, gauges, fixed-bucket
// histograms with quantile snapshots), hierarchical wall-clock spans that
// render as an indented trace tree, and optional HTTP wiring for
// /debug/pprof, /debug/vars, and /metrics.
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
	"expvar"
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

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

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

func (g *Gauge) reset() { g.bits.Store(0) }

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

// Buckets snapshots the histogram's bucket layout: bounds are the
// inclusive upper edges and counts has len(bounds)+1 entries, the last
// being the overflow bucket. The SLO tracker diffs successive snapshots to
// compute windowed latency-threshold rates.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
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

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.reset()
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
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

// Reset zeroes every registered metric in place. Handles held by
// instrumented packages stay valid, so tests can isolate accounting
// without re-registering.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, v := range r.cvecs {
		v.reset()
	}
	for _, v := range r.gvecs {
		v.reset()
	}
	for _, v := range r.hvecs {
		v.reset()
	}
}

// histSummary is the JSON-friendly quantile digest shared by Snapshot and
// the expvar export.
func histSummary(h *Histogram) map[string]any {
	return map[string]any{
		"count": h.Count(),
		"sum":   h.Sum(),
		"min":   h.Min(),
		"max":   h.Max(),
		"p50":   h.Quantile(0.50),
		"p95":   h.Quantile(0.95),
		"p99":   h.Quantile(0.99),
	}
}

// Snapshot returns a JSON-friendly view of every metric, used by the
// expvar export. Vec children appear under `name{label=value,…}` keys;
// encoding/json sorts map keys, so the marshalled form is deterministic.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = histSummary(h)
	}
	for name, v := range r.cvecs {
		v.each(func(values []string, c *Counter) {
			out[name+labelPairs(v.labels, values)] = c.Value()
		})
	}
	for name, v := range r.gvecs {
		v.each(func(values []string, g *Gauge) {
			out[name+labelPairs(v.labels, values)] = g.Value()
		})
	}
	for name, v := range r.hvecs {
		v.each(func(values []string, h *Histogram) {
			out[name+labelPairs(v.labels, values)] = histSummary(h)
		})
	}
	return out
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

var publishOnce sync.Once

// Default returns the process-global registry.
func Default() *Registry {
	publishExpvar()
	return def
}

// publishExpvar exposes the default registry under the "clear" expvar key
// so /debug/vars includes the pipeline metrics alongside memstats.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("clear", expvar.Func(func() any { return def.Snapshot() }))
	})
}

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

// ResetMetrics zeroes the default registry (tests and repeated runs).
func ResetMetrics() { def.Reset() }
