package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// maxCardinality bounds the number of distinct label-value combinations
// a vec will materialise. Combination number maxCardinality+1 and beyond
// share one overflow child whose every label value is OverflowLabel, so
// a bug that interpolates user input into a label value degrades the
// metric instead of exhausting memory.
const maxCardinality = 64

// OverflowLabel is the label value assigned to the shared overflow child
// once a vec hits its cardinality bound.
const OverflowLabel = "other"

// vecSep joins label values into a map key; 0x1f (ASCII unit separator)
// cannot appear in sane label values.
const vecSep = "\x1f"

// vecKey validates the value count and joins values into a child key.
func vecKey(name string, labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: vec %s expects %d label values (%v), got %d",
			name, len(labels), labels, len(values)))
	}
	return strings.Join(values, vecSep)
}

func overflowKey(labels []string) string {
	vals := make([]string, len(labels))
	for i := range vals {
		vals[i] = OverflowLabel
	}
	return strings.Join(vals, vecSep)
}

// sortedKeys returns the map keys sorted, so every iteration over a vec's
// children (Dump, Prometheus exposition) is deterministic.
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a family of counters partitioned by label values, e.g.
// serve.http_requests{endpoint, code}. With is safe for concurrent use;
// hold the child handle when the label values are fixed at a call site.
type CounterVec struct {
	name     string
	labels   []string
	ovKey    string
	mu       sync.RWMutex
	children map[string]*Counter
}

func newCounterVec(name string, labels []string) *CounterVec {
	return &CounterVec{
		name:     name,
		labels:   append([]string(nil), labels...),
		ovKey:    overflowKey(labels),
		children: map[string]*Counter{},
	}
}

// With returns the child counter for the given label values (one per
// label, in order), creating it on first use. Past the cardinality bound
// it returns the shared overflow child.
func (v *CounterVec) With(values ...string) *Counter {
	k := vecKey(v.name, v.labels, values)
	v.mu.RLock()
	c := v.children[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[k]; c != nil {
		return c
	}
	if len(v.children) >= maxCardinality && k != v.ovKey {
		k = v.ovKey
		if c := v.children[k]; c != nil {
			return c
		}
	}
	c = &Counter{}
	v.children[k] = c
	return c
}

// Each calls f for every child in sorted label order (the same
// deterministic order Dump and the Prometheus exposition use). f must not
// call back into the vec.
func (v *CounterVec) Each(f func(values []string, c *Counter)) { v.each(f) }

// each calls f for every child in sorted label order.
func (v *CounterVec) each(f func(values []string, c *Counter)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range sortedKeys(v.children) {
		f(strings.Split(k, vecSep), v.children[k])
	}
}

// GaugeVec is a family of gauges partitioned by label values, e.g.
// serve.breaker_state{cluster}.
type GaugeVec struct {
	name     string
	labels   []string
	ovKey    string
	mu       sync.RWMutex
	children map[string]*Gauge
}

func newGaugeVec(name string, labels []string) *GaugeVec {
	return &GaugeVec{
		name:     name,
		labels:   append([]string(nil), labels...),
		ovKey:    overflowKey(labels),
		children: map[string]*Gauge{},
	}
}

// With returns the child gauge for the given label values, creating it on
// first use; past the cardinality bound it returns the overflow child.
func (v *GaugeVec) With(values ...string) *Gauge {
	k := vecKey(v.name, v.labels, values)
	v.mu.RLock()
	g := v.children[k]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g := v.children[k]; g != nil {
		return g
	}
	if len(v.children) >= maxCardinality && k != v.ovKey {
		k = v.ovKey
		if g := v.children[k]; g != nil {
			return g
		}
	}
	g = &Gauge{}
	v.children[k] = g
	return g
}

func (v *GaugeVec) each(f func(values []string, g *Gauge)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range sortedKeys(v.children) {
		f(strings.Split(k, vecSep), v.children[k])
	}
}

// HistogramVec is a family of histograms partitioned by label values,
// sharing one set of bucket bounds, e.g. serve.http_latency_us{endpoint}.
type HistogramVec struct {
	name     string
	labels   []string
	bounds   []float64
	ovKey    string
	mu       sync.RWMutex
	children map[string]*Histogram
}

func newHistogramVec(name string, bounds []float64, labels []string) *HistogramVec {
	return &HistogramVec{
		name:     name,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		ovKey:    overflowKey(labels),
		children: map[string]*Histogram{},
	}
}

// With returns the child histogram for the given label values, creating
// it (with the vec's shared bounds) on first use; past the cardinality
// bound it returns the overflow child.
func (v *HistogramVec) With(values ...string) *Histogram {
	k := vecKey(v.name, v.labels, values)
	v.mu.RLock()
	h := v.children[k]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.children[k]; h != nil {
		return h
	}
	if len(v.children) >= maxCardinality && k != v.ovKey {
		k = v.ovKey
		if h := v.children[k]; h != nil {
			return h
		}
	}
	h = newHistogram(v.bounds)
	v.children[k] = h
	return h
}

// Each calls f for every child in sorted label order. f must not call
// back into the vec.
func (v *HistogramVec) Each(f func(values []string, h *Histogram)) { v.each(f) }

func (v *HistogramVec) each(f func(values []string, h *Histogram)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, k := range sortedKeys(v.children) {
		f(strings.Split(k, vecSep), v.children[k])
	}
}

// labelPairs renders `name{l1="v1",l2="v2"}`-style suffixes for Dump
// keys (Prometheus exposition has its own escaping path).
func labelPairs(labels, values []string) string {
	parts := make([]string, len(labels))
	for i := range labels {
		parts[i] = labels[i] + "=" + values[i]
	}
	return "{" + strings.Join(parts, ",") + "}"
}
