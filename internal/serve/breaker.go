package serve

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: builds flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: builds are refused until the cooldown expires; sessions
	// are served from the shared cluster baseline (degraded mode).
	BreakerOpen
	// BreakerHalfOpen: the cooldown expired; exactly one probe build is
	// admitted. Success closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker guarding one cluster's
// fine-tune builds. After threshold consecutive failures it opens for
// cooldown; the first Allow after the cooldown becomes a half-open probe
// whose outcome (Done) decides between closing and re-opening.
//
// now is injectable for tests; production uses time.Now.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	fails     int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	now       func() time.Time
}

// NewBreaker builds a closed breaker. threshold < 1 defaults to 3,
// cooldown ≤ 0 to 5s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// State reports the breaker's position, lazily promoting open → half-open
// once the cooldown has expired.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() BreakerState {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
		b.probing = false
	}
	return b.state
}

// Allow asks to run one build. Closed: always granted. Open: refused.
// Half-open: granted once (the probe); concurrent asks are refused until
// the probe reports via Done. Every granted Allow must be paired with Done
// or Release.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Done reports a granted build's outcome. In half-open, success closes the
// breaker and failure re-opens it (restarting the cooldown); in closed,
// failures accumulate toward the threshold and any success resets them.
func (b *Breaker) Done(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if err == nil {
			b.state = BreakerClosed
			b.fails = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
		return
	}
	if err == nil {
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerClosed && b.fails >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// Release returns a granted Allow without an outcome: a half-open probe
// slot frees for the next build, and the failure count is unchanged.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}
