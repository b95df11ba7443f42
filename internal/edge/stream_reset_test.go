package edge

import (
	"math/rand"
	"testing"
)

// TestMonitorResetMatchesFresh: a recycled monitor must be
// indistinguishable from a freshly constructed one — same EWMA seeding,
// same hysteresis trajectory, cleared per-monitor stats. This guards the
// session-recycling path in internal/serve, where monitors outlive the
// user they were built for.
func TestMonitorResetMatchesFresh(t *testing.T) {
	dep, _, ecfg := monitorFixture(t)

	// A probability stream that exercises both hysteresis transitions.
	rng := rand.New(rand.NewSource(7))
	probs := make([]float64, 40)
	for i := range probs {
		switch {
		case i < 10:
			probs[i] = 0.1 + 0.2*rng.Float64() // quiet
		case i < 25:
			probs[i] = 0.8 + 0.15*rng.Float64() // fear episode → alarm on
		default:
			probs[i] = 0.1 + 0.1*rng.Float64() // recovery → alarm off
		}
	}

	run := func(m *Monitor) []Event {
		out := make([]Event, len(probs))
		for i, p := range probs {
			out[i] = m.Observe(p)
		}
		return out
	}

	// Dirty the monitor with a different stream, then reset.
	recycled := NewMonitor(dep, nil, ecfg)
	for i := 0; i < 17; i++ {
		recycled.Observe(0.95) // latches the alarm and pushes the EWMA high
	}
	if !recycled.alarmed {
		t.Fatal("setup: monitor should be alarmed before Reset")
	}
	recycled.Reset()

	if st := recycled.Stats(); st != (MonitorStats{}) {
		t.Fatalf("Reset left per-monitor stats %+v", st)
	}
	if recycled.alarmed {
		t.Fatal("Reset left the alarm latched")
	}

	fresh := NewMonitor(dep, nil, ecfg)
	got, want := run(recycled), run(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d diverged after recycle: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if gs, ws := recycled.Stats(), fresh.Stats(); gs != ws {
		t.Fatalf("stats diverged after recycle: got %+v, want %+v", gs, ws)
	}
	if ws := fresh.Stats(); ws.Transitions < 2 {
		t.Fatalf("stream only produced %d transitions; the test needs both edges", ws.Transitions)
	}
}
