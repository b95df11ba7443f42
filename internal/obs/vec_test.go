package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http.requests", []string{"endpoint", "code"})
	incBy(v.With("windows", "200"), 3)
	v.With("windows", "429").Inc()
	v.With("windows", "200").Inc()
	if got := v.With("windows", "200").Value(); got != 4 {
		t.Fatalf("child value = %d, want 4", got)
	}
	if r.CounterVec("http.requests", nil) != v {
		t.Fatal("vec lookup did not return the registered handle")
	}
	d := r.Dump()
	for _, want := range []string{
		`http.requests{endpoint=windows,code=200} 4`,
		`http.requests{endpoint=windows,code=429} 1`,
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	v := newCounterVec("x", []string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong label count did not panic")
		}
	}()
	v.With("only-one")
}

// TestVecCardinalityBound checks the vec saturates into the shared
// `other` child instead of growing without bound.
func TestVecCardinalityBound(t *testing.T) {
	v := newCounterVec("cards", []string{"user"})
	const past = 36
	for i := 0; i < maxCardinality+past; i++ {
		v.With(fmt.Sprintf("u%03d", i)).Inc()
	}
	v.mu.RLock()
	n := len(v.children)
	v.mu.RUnlock()
	if n != maxCardinality+1 {
		t.Fatalf("children = %d, want %d + overflow", n, maxCardinality)
	}
	if got := v.With(OverflowLabel).Value(); got != past {
		t.Fatalf("overflow child = %d, want %d", got, past)
	}
	// Existing combos still resolve to their own child.
	if got := v.With("u001").Value(); got != 1 {
		t.Fatalf("pre-bound child = %d, want 1", got)
	}
}

func TestGaugeAndHistogramVecBound(t *testing.T) {
	gv := newGaugeVec("g", []string{"cluster"})
	for i := 0; i < maxCardinality+8; i++ {
		gv.With(fmt.Sprintf("c%d", i)).Set(float64(i))
	}
	gv.mu.RLock()
	gn := len(gv.children)
	gv.mu.RUnlock()
	if gn != maxCardinality+1 {
		t.Fatalf("gauge children = %d, want %d + overflow", gn, maxCardinality)
	}
	hv := newHistogramVec("h", []float64{1, 10, 100}, []string{"cluster"})
	for i := 0; i < maxCardinality+8; i++ {
		hv.With(fmt.Sprintf("c%d", i)).Observe(float64(i))
	}
	if got := hv.With(OverflowLabel).Count(); got != 8 {
		t.Fatalf("histogram overflow count = %d, want 8", got)
	}
}

// TestVecConcurrentLookup hammers With from many goroutines (run under
// -race in extended verify) while combos churn past the bound.
func TestVecConcurrentLookup(t *testing.T) {
	v := newCounterVec("conc", []string{"endpoint", "code"})
	hv := newHistogramVec("conc.lat", ExpBuckets(1, 2, 8), []string{"endpoint"})
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v.With(fmt.Sprintf("e%d", i%(2*maxCardinality)), "200").Inc()
				hv.With(fmt.Sprintf("e%d", g%4)).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	var total int64
	v.each(func(_ []string, c *Counter) { total += c.Value() })
	if total != goroutines*perG {
		t.Fatalf("total across children = %d, want %d", total, goroutines*perG)
	}
}
