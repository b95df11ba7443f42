package obs

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.hits")
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	// Same name returns the same handle.
	if r.Counter("test.hits") != c {
		t.Error("Counter did not return the registered handle")
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.energy_j")
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := 0.5 * goroutines * perG
	if got := g.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Fatalf("gauge after Set = %v, want 3.25", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.lat", ExpBuckets(1, 2, 16))
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) / 1000)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramQuantiles checks quantile estimates against a known uniform
// distribution: values 1..10000 observed once each, fine linear buckets.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(LinearBuckets(100, 100, 100))
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		h.Observe(float64(i + 1))
	}
	if h.Count() != n {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != n {
		t.Fatalf("min/max = %v/%v, want 1/%d", h.Min(), h.Max(), n)
	}
	if mean := h.Mean(); math.Abs(mean-(n+1)/2.0) > 1e-6 {
		t.Fatalf("mean = %v, want %v", mean, (n+1)/2.0)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900}, {0, 1}, {1, n},
	} {
		got := h.Quantile(tc.q)
		// One bucket of slack: interpolation is exact only within buckets.
		if math.Abs(got-tc.want) > 100 {
			t.Errorf("p%g = %v, want %v ± 100", tc.q*100, got, tc.want)
		}
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(100) // overflow bucket
	h.Observe(150)
	if got := h.Quantile(0.99); got < 100 || got > 150 {
		t.Errorf("overflow quantile = %v, want within [100, 150]", got)
	}
}

// incBy adds n to c, one Inc at a time.
func incBy(c *Counter, n int) {
	for i := 0; i < n; i++ {
		c.Inc()
	}
}

func TestDump(t *testing.T) {
	r := NewRegistry()
	incBy(r.Counter("z.count"), 3)
	r.Gauge("a.gauge").Set(1.5)
	r.Histogram("m.hist", []float64{1, 10}).Observe(5)
	d := r.Dump()
	for _, want := range []string{"z.count 3", "a.gauge 1.5", "m.hist count=1"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	// Sorted output: gauge line before counter line.
	if strings.Index(d, "a.gauge") > strings.Index(d, "z.count") {
		t.Error("dump not sorted")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("t")
	fit := tr.Start("fit")
	cl := tr.Start("cluster")
	for i := 0; i < 3; i++ {
		tr.Start("kmeans.restart").End()
	}
	cl.End()
	tn := tr.Start("train")
	tn.End()
	fit.End()

	out := tr.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 rendered lines, got %d:\n%s", len(lines), out)
	}
	checks := []struct{ line, want string }{
		{lines[0], "fit"},
		{lines[1], "  cluster"},
		{lines[2], "    kmeans.restart[3]"},
		{lines[3], "  train"},
	}
	for _, c := range checks {
		if !strings.HasPrefix(c.line, c.want) {
			t.Errorf("line %q does not start with %q", c.line, c.want)
		}
	}
	if !strings.Contains(lines[2], "avg") {
		t.Errorf("merged siblings should show avg: %q", lines[2])
	}
}

// TestSpanSiblingMerge checks that children of merged siblings merge too:
// N folds each containing a fit render as fold[N] > fit[N].
func TestSpanSiblingMerge(t *testing.T) {
	tr := NewTrace("t")
	for i := 0; i < 5; i++ {
		f := tr.Start("fold")
		tr.Start("fit").End()
		f.End()
	}
	out := tr.Render()
	if !strings.Contains(out, "fold[5]") || !strings.Contains(out, "fit[5]") {
		t.Fatalf("merged render wrong:\n%s", out)
	}
	if got := len(strings.Split(out, "\n")); got != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", got, out)
	}
}

func TestSpanEndIsIdempotentAndClosesChildren(t *testing.T) {
	tr := NewTrace("t")
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	outer.End() // inner still open: must be closed implicitly
	if !inner.ended {
		t.Fatal("ending a parent should close open children")
	}
	d := inner.dur
	inner.End() // idempotent
	if inner.dur != d {
		t.Fatal("second End changed the duration")
	}
	// New spans attach at the root again.
	s := tr.Start("next")
	s.End()
	if !strings.Contains(tr.Render(), "next") {
		t.Fatal("cursor not restored to root")
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("sleep")
	time.Sleep(5 * time.Millisecond)
	s.End()
	if s.dur < 5*time.Millisecond {
		t.Fatalf("span duration %v < slept 5ms", s.dur)
	}
}

func TestEmptyTreeRender(t *testing.T) {
	if got := NewTrace("t").Render(); !strings.Contains(got, "no spans") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestDefaultTracerReset(t *testing.T) {
	ResetSpans()
	StartSpan("x").End()
	if !strings.Contains(SpanTree(), "x") {
		t.Fatal("default tracer did not record span")
	}
	ResetSpans()
	if !strings.Contains(SpanTree(), "no spans") {
		t.Fatal("ResetSpans did not clear the tree")
	}
}

// TestServe exercises the HTTP surface end-to-end on a loopback listener.
func TestServe(t *testing.T) {
	GetCounter("test.serve.hits").Inc()
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "test_serve_hits") {
		t.Errorf("/metrics missing counter in Prometheus form:\n%s", body)
	}
	if body := get("/debug/metrics"); !strings.Contains(body, "test.serve.hits") {
		t.Errorf("/debug/metrics missing counter:\n%s", body)
	}
	// No expvar dump: /metrics and /debug/metrics render the registry.
	resp, err := http.Get("http://" + addr.String() + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	get("/debug/spans")
}
