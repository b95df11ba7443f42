// Package fault is a deterministic, seedable fault injector for chaos
// testing the serving stack. Production code exposes optional injection
// points (a nil *Injector field); when no injector is installed every hook
// is a nil-receiver method call that returns immediately, so the
// production path pays nothing beyond a pointer test.
//
// The injector is deliberately tiny: each Point carries an independent
// firing probability, decisions are drawn from one seeded RNG so a chaos
// run replays bit-identically for a given seed, and every fired fault is
// counted both locally (Counts, for test assertions) and on the shared obs
// registry (fault.injected.* counters, for the /metrics surface).
package fault

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks an error as synthesised by the injector; hardened code
// treats it like any other failure, tests branch on it with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Point identifies one injection site in the serving stack.
type Point string

// The failure points the serving stack exposes.
const (
	// ModelBuild fails a fine-tune build (core.Pipeline.FineTune).
	ModelBuild Point = "model_build"
	// InferStall delays a batched inference pass inside the executor,
	// exercising deadline/watchdog handling.
	InferStall Point = "infer_stall"
	// ChannelDropout blanks one sensor channel of an incoming window
	// (the dominant real-world wearable failure).
	ChannelDropout Point = "channel_dropout"
	// CorruptWindow poisons an incoming window with NaN/Inf values.
	CorruptWindow Point = "corrupt_window"
	// StorePutFail fails a store write (session record, blob, manifest),
	// simulating a durable-store outage on the persist path.
	StorePutFail Point = "store_put_fail"
)

// Points lists every defined injection point.
func Points() []Point {
	return []Point{
		ModelBuild, InferStall, ChannelDropout, CorruptWindow, StorePutFail,
	}
}

// Injector decides deterministically (per seed) whether each hook fires.
// The zero value never fires; a nil *Injector is safe to call and never
// fires — installing nil is how production disables injection.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates map[Point]float64
	fired map[Point]int64
	stall time.Duration
}

// Fired-fault telemetry, one counter per point on the default registry.
var (
	mInjected = map[Point]*obs.Counter{
		ModelBuild:     obs.GetCounter("fault.injected.model_build"),
		InferStall:     obs.GetCounter("fault.injected.infer_stall"),
		ChannelDropout: obs.GetCounter("fault.injected.channel_dropout"),
		CorruptWindow:  obs.GetCounter("fault.injected.corrupt_window"),
		StorePutFail:   obs.GetCounter("fault.injected.store_put_fail"),
	}
)

// New returns an injector with no active points; Enable arms them.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rates: map[Point]float64{},
		fired: map[Point]int64{},
		stall: 250 * time.Millisecond,
	}
}

// Enable arms a point with a firing probability in [0,1] and returns the
// injector for chaining. A rate ≤ 0 disarms the point.
func (in *Injector) Enable(p Point, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if rate <= 0 {
		delete(in.rates, p)
	} else {
		if rate > 1 {
			rate = 1
		}
		in.rates[p] = rate
	}
	return in
}

// SetStall sets the delay an InferStall firing imposes.
func (in *Injector) SetStall(d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if d > 0 {
		in.stall = d
	}
	return in
}

// Fire reports whether point p's fault fires now. Nil-safe: a nil injector
// never fires. Each firing is counted locally and on the obs registry.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	rate, armed := in.rates[p]
	hit := armed && in.rng.Float64() < rate
	if hit {
		in.fired[p]++
	}
	in.mu.Unlock()
	if hit {
		if c, ok := mInjected[p]; ok {
			c.Inc()
		}
	}
	return hit
}

// Stall returns the delay an InferStall firing should impose. Nil-safe.
func (in *Injector) Stall() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stall
}

// Intn draws a deterministic choice in [0,n) from the injector's stream
// (e.g. which sensor channel to drop). Nil-safe: a nil injector returns 0.
func (in *Injector) Intn(n int) int {
	if in == nil || n <= 1 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Counts snapshots how many times each point has fired.
func (in *Injector) Counts() map[Point]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Point]int64, len(in.fired))
	for p, n := range in.fired {
		out[p] = n
	}
	return out
}
