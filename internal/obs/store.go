package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceStore is a bounded in-memory buffer of finished traces with
// tail-sampling admission: errored traces are always kept, OK traces pass
// through a token bucket so a healthy high-QPS server retains a steady
// trickle instead of churning the buffer. Eviction is FIFO once the
// capacity is hit, so an error trace is still findable for roughly
// capacity/QPS seconds after it happened.
type TraceStore struct {
	mu         sync.Mutex
	capacity   int
	okPerSec   float64
	okBurst    float64
	okBudget   float64
	lastRefill time.Time
	byID       map[uint64]*TraceSnapshot
	order      []uint64
}

// NewTraceStore returns a store holding at most capacity traces and
// admitting at most okPerSec non-error traces per second (errors are
// always admitted).
func NewTraceStore(capacity int, okPerSec float64) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	if okPerSec < 0 {
		okPerSec = 0
	}
	burst := math.Max(okPerSec, 8)
	return &TraceStore{
		capacity:   capacity,
		okPerSec:   okPerSec,
		okBurst:    burst,
		okBudget:   burst,
		lastRefill: time.Now(),
		byID:       map[uint64]*TraceSnapshot{},
	}
}

// Add finishes t, applies the tail-sampling admission decision, and
// stores a snapshot keyed by the trace id's low word. It reports whether
// the trace was kept.
func (st *TraceStore) Add(t *Trace) bool {
	if st == nil || t == nil {
		return false
	}
	t.Finish()
	errored := t.Errored()
	st.mu.Lock()
	defer st.mu.Unlock()
	if !errored {
		now := time.Now()
		st.okBudget = math.Min(st.okBurst, st.okBudget+now.Sub(st.lastRefill).Seconds()*st.okPerSec)
		st.lastRefill = now
		if st.okBudget < 1 {
			return false
		}
		st.okBudget--
	}
	snap := t.Snapshot()
	key := t.ID().Lo
	if _, dup := st.byID[key]; !dup {
		st.order = append(st.order, key)
	}
	st.byID[key] = &snap
	for len(st.order) > st.capacity {
		old := st.order[0]
		st.order = st.order[1:]
		delete(st.byID, old)
	}
	return true
}

// parseTraceKey accepts a 16-hex (low word) or 32-hex (full W3C) trace id
// and returns the 64-bit lookup key.
func parseTraceKey(id string) (uint64, bool) {
	id = strings.TrimSpace(id)
	if len(id) == 32 {
		id = id[16:]
	}
	if len(id) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Get looks up a stored trace by id — either the 16-hex short form or the
// full 32-hex W3C form.
func (st *TraceStore) Get(id string) (TraceSnapshot, bool) {
	key, ok := parseTraceKey(id)
	if !ok {
		return TraceSnapshot{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap, ok := st.byID[key]
	if !ok {
		return TraceSnapshot{}, false
	}
	return *snap, true
}

// Len returns the number of traces currently held.
func (st *TraceStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}
