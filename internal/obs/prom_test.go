package obs

import (
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// promLineRe matches one valid Prometheus text-format line: a comment or
// a `name{labels} value` sample. The same check runs in CI against the
// live /metrics endpoint.
var promLineRe = regexp.MustCompile(
	`^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+)$`)

func TestWritePrometheusSyntaxAndContent(t *testing.T) {
	r := NewRegistry()
	incBy(r.Counter("serve.windows"), 7)
	r.Gauge("serve.sessions_open").Set(3)
	r.Histogram("serve.window_us", []float64{10, 100}).Observe(42)
	cv := r.CounterVec("serve.http_requests", []string{"endpoint", "code"})
	incBy(cv.With("windows", "200"), 5)
	cv.With("windows", "429").Inc()
	r.GaugeVec("serve.breaker_state", []string{"cluster"}).With("2").Set(1)
	hv := r.HistogramVec("serve.http_latency_us", []float64{100, 1000}, []string{"endpoint"})
	hv.With("windows").Observe(250)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !promLineRe.MatchString(line) {
			t.Errorf("line %d not valid prom text: %q", i+1, line)
		}
	}
	for _, want := range []string{
		"# TYPE serve_windows counter\nserve_windows 7",
		"# TYPE serve_sessions_open gauge\nserve_sessions_open 3",
		`serve_http_requests{endpoint="windows",code="200"} 5`,
		`serve_http_requests{endpoint="windows",code="429"} 1`,
		`serve_breaker_state{cluster="2"} 1`,
		`serve_window_us_bucket{le="10"} 0`,
		`serve_window_us_bucket{le="100"} 1`,
		`serve_window_us_bucket{le="+Inf"} 1`,
		"serve_window_us_sum 42",
		"serve_window_us_count 1",
		`serve_http_latency_us_bucket{endpoint="windows",le="1000"} 1`,
		`serve_http_latency_us_sum{endpoint="windows"} 250`,
		`serve_http_latency_us_count{endpoint="windows"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the total count.
	if strings.Count(out, "# TYPE serve_window_us histogram") != 1 {
		t.Error("histogram family should have exactly one TYPE line")
	}
}

func TestPromNameAndEscape(t *testing.T) {
	if got := promName("serve.http-latency.us"); got != "serve_http_latency_us" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("9lives"); got != "_9lives" {
		t.Fatalf("promName leading digit = %q", got)
	}
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("promEscape = %q", got)
	}
}

// TestDumpDeterministic is the satellite regression test: two registries
// populated in different orders must render byte-identical Dump output,
// and the rendered lines must be sorted.
func TestDumpDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { incBy(r.Counter("z.count"), 3) },
			func() { r.Gauge("a.gauge").Set(1.5) },
			func() { r.Histogram("m.hist", []float64{1, 10}).Observe(5) },
			func() { incBy(r.CounterVec("v.req", []string{"code"}).With("200"), 2) },
			func() { r.CounterVec("v.req", []string{"code"}).With("429").Inc() },
			func() { r.GaugeVec("b.state", []string{"cluster"}).With("0").Set(2) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	fwd := build([]int{0, 1, 2, 3, 4, 5}).Dump()
	rev := build([]int{5, 4, 3, 2, 1, 0}).Dump()
	if fwd != rev {
		t.Fatalf("Dump depends on registration order:\n--- fwd ---\n%s\n--- rev ---\n%s", fwd, rev)
	}
	lines := strings.Split(fwd, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("dump not sorted at line %d: %q > %q", i, lines[i-1], lines[i])
		}
	}
	// Prometheus output is deterministic too.
	var b1, b2 strings.Builder
	_ = build([]int{0, 1, 2, 3, 4, 5}).WritePrometheus(&b1)
	_ = build([]int{5, 4, 3, 2, 1, 0}).WritePrometheus(&b2)
	if b1.String() != b2.String() {
		t.Fatal("WritePrometheus depends on registration order")
	}
}

// TestHistogramQuantileEmptyAndNaN is the satellite regression test for
// Quantile on degenerate inputs: empty histograms return a deterministic
// 0 for every q, non-finite observations are dropped instead of
// poisoning the digest, and a NaN q does not propagate.
func TestHistogramQuantileEmptyAndNaN(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 8))
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 0 {
		t.Fatalf("non-finite observations counted: %d", h.Count())
	}
	h.Observe(4)
	if got := h.Quantile(math.NaN()); math.IsNaN(got) {
		t.Error("Quantile(NaN) propagated NaN")
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("single-value p50 = %v, want 4", got)
	}
}

// TestHistogramQuantileMonotonic checks q1 <= q2 implies
// Quantile(q1) <= Quantile(q2) across a randomized distribution.
func TestHistogramQuantileMonotonic(t *testing.T) {
	h := newHistogram(ExpBuckets(0.5, 1.7, 20))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		h.Observe(math.Exp(rng.NormFloat64() * 2)) // heavy-tailed
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile(%v) = %v", q, got, q-0.01, prev)
		}
		prev = got
	}
	if h.Quantile(0) < h.Min() || h.Quantile(1) > h.Max() {
		t.Fatal("quantiles escaped the observed min/max clamp")
	}
}
