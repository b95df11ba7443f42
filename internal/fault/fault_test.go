package fault

import (
	"sync"
	"testing"
	"time"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for _, p := range Points() {
		if in.Fire(p) {
			t.Fatalf("nil injector fired %s", p)
		}
	}
	if in.Stall() != 0 {
		t.Fatal("nil injector has a stall duration")
	}
	if in.Intn(7) != 0 {
		t.Fatal("nil injector drew a nonzero choice")
	}
	if in.Counts() != nil {
		t.Fatal("nil injector has counts")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	in := New(1)
	for i := 0; i < 1000; i++ {
		if in.Fire(ModelBuild) {
			t.Fatal("unarmed point fired")
		}
	}
	in.Enable(ModelBuild, 0.5).Enable(ModelBuild, 0)
	for i := 0; i < 1000; i++ {
		if in.Fire(ModelBuild) {
			t.Fatal("disarmed point fired")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []bool {
		in := New(42).Enable(CorruptWindow, 0.3).Enable(InferStall, 0.1)
		out := make([]bool, 0, 2000)
		for i := 0; i < 1000; i++ {
			out = append(out, in.Fire(CorruptWindow), in.Fire(InferStall))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across same-seed replays", i)
		}
	}
}

func TestRatesAndCounts(t *testing.T) {
	in := New(7).Enable(ChannelDropout, 0.25)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if in.Fire(ChannelDropout) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("firing rate %.3f far from configured 0.25", frac)
	}
	if got := in.Counts()[ChannelDropout]; got != int64(hits) {
		t.Fatalf("Counts = %d, observed %d", got, hits)
	}
	// Rates above 1 clamp to always-fire.
	in.Enable(ModelBuild, 5)
	if !in.Fire(ModelBuild) {
		t.Fatal("rate-1 point did not fire")
	}
}

func TestStallConfig(t *testing.T) {
	in := New(1)
	if d := in.Stall(); d <= 0 {
		t.Fatalf("default stall %v not positive", d)
	}
	in.SetStall(5 * time.Millisecond)
	if d := in.Stall(); d != 5*time.Millisecond {
		t.Fatalf("stall = %v, want 5ms", d)
	}
	in.SetStall(0) // ignored
	if d := in.Stall(); d != 5*time.Millisecond {
		t.Fatalf("zero SetStall overwrote the stall (%v)", d)
	}
}

// TestConcurrentFire exercises the injector from many goroutines (run with
// -race); totals must be exact.
func TestConcurrentFire(t *testing.T) {
	in := New(3).Enable(CorruptWindow, 0.5).Enable(ModelBuild, 1)
	var wg sync.WaitGroup
	const gs, per = 8, 500
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.Fire(CorruptWindow)
				in.Fire(ModelBuild)
				in.Intn(3)
			}
		}()
	}
	wg.Wait()
	if got := in.Counts()[ModelBuild]; got != gs*per {
		t.Fatalf("ModelBuild fired %d, want %d", got, gs*per)
	}
}
