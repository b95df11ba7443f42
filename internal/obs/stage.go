package obs

// Stage-latency attribution. A StageTimer rides one request through the
// serving pipeline (HTTP decode → sanitisation → executor queue → batched
// forward pass → encode) and splits the end-to-end wall time into named
// stages. Each layer adds the durations it can measure; Finish computes a
// residual "other" stage (total minus the sum of the measured stages,
// clamped at zero) so the per-request stage sums reconcile with the
// end-to-end latency by construction — the invariant the serve-level
// reconciliation test asserts against http_latency_us.
//
// The timer is carried in the request context (WithStageTimer /
// StageTimerOf) and every method is nil-safe, so instrumented layers never
// need to check whether the caller attached one. Stage durations are only
// ever written from the request's own goroutine: the executor reports its
// queue/batch/forward splits inside InferResult and the submitting
// goroutine records them, which keeps the timer free of cross-goroutine
// data races without per-Add locking on the hot path.

import (
	"context"
	"sync"
	"time"
)

// StageKind identifies one pipeline stage.
type StageKind int

// Pipeline stages, in request order. StageOther is the residual computed
// by Finish; NumStages bounds arrays indexed by StageKind.
const (
	// StageDecode is HTTP body read + JSON decode + payload-to-tensor.
	StageDecode StageKind = iota
	// StageSanitize is window validation/imputation under the session lock.
	StageSanitize
	// StageQueueWait is submission until the dispatcher collected the
	// request's coalescing round.
	StageQueueWait
	// StageBatchWait is round collection until the model pass started
	// (concurrency semaphore + per-model lock).
	StageBatchWait
	// StageForward is the matmul/dense part of the batched model pass.
	StageForward
	// StageQuant is the activation-quantisation part of the pass (int8/fp16
	// deployments; zero for fp32 models).
	StageQuant
	// StageEncode is response marshalling + write.
	StageEncode
	// StageStore is durable-store I/O on the request path: write-through
	// session persists and on-demand hydration reads (internal/store).
	StageStore
	// StageProxy is time spent forwarding a request to the replica that
	// owns its session (consistent-hash routing, internal/shard).
	StageProxy
	// StageOther is the residual: total minus every measured stage
	// (middleware, locking, scheduling gaps).
	StageOther
	// NumStages is the number of stage kinds.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "sanitize", "queue_wait", "batch_wait",
	"forward", "quant", "encode", "store", "proxy", "other",
}

// String returns the stage's metric label value.
func (k StageKind) String() string {
	if k < 0 || k >= NumStages {
		return "unknown"
	}
	return stageNames[k]
}

// StageDur is one named stage duration in a finished breakdown.
type StageDur struct {
	Kind StageKind
	Dur  time.Duration
}

// StageTimer accumulates per-stage durations for one request. Create with
// NewStageTimer; the zero value and the nil pointer are inert.
type StageTimer struct {
	start time.Time

	mu      sync.Mutex
	dur     [NumStages]time.Duration
	cluster string
	done    bool
	total   time.Duration
}

// NewStageTimer starts the end-to-end clock for one request. The cluster
// label defaults to "none" until the serving layer learns the session's
// assignment.
func NewStageTimer() *StageTimer {
	return &StageTimer{start: time.Now(), cluster: "none"}
}

// Add accumulates d into stage k. Negative durations are dropped (clock
// skew between goroutine timestamps must not produce negative buckets).
// Nil-safe.
func (st *StageTimer) Add(k StageKind, d time.Duration) {
	if st == nil || k < 0 || k >= NumStages || d <= 0 {
		return
	}
	st.mu.Lock()
	if !st.done {
		st.dur[k] += d
	}
	st.mu.Unlock()
}

// Time starts measuring stage k and returns a stop function that records
// the elapsed time when called: defer st.Time(StageDecode)(). Nil-safe.
func (st *StageTimer) Time(k StageKind) func() {
	if st == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { st.Add(k, time.Since(t0)) }
}

// SetCluster records the cluster label the flushed stage series will carry
// ("none" before assignment). Nil-safe.
func (st *StageTimer) SetCluster(c string) {
	if st == nil || c == "" {
		return
	}
	st.mu.Lock()
	st.cluster = c
	st.mu.Unlock()
}

// Cluster returns the current cluster label. Nil-safe ("none").
func (st *StageTimer) Cluster() string {
	if st == nil {
		return "none"
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cluster
}

// Finish stops the end-to-end clock, computes the residual StageOther, and
// returns the total with the per-stage breakdown. Idempotent: later calls
// return the first result. Nil-safe (zero total, nil breakdown).
func (st *StageTimer) Finish() (time.Duration, []StageDur) {
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.done {
		st.done = true
		st.total = time.Since(st.start)
		var sum time.Duration
		for k := StageKind(0); k < StageOther; k++ {
			sum += st.dur[k]
		}
		if rest := st.total - sum; rest > 0 {
			st.dur[StageOther] = rest
		}
	}
	out := make([]StageDur, 0, NumStages)
	for k := StageKind(0); k < NumStages; k++ {
		if st.dur[k] > 0 {
			out = append(out, StageDur{Kind: k, Dur: st.dur[k]})
		}
	}
	return st.total, out
}

// FlushTo finishes the timer and records every non-zero stage into the
// given histogram family under {stage, cluster} labels, returning the
// total and breakdown. Nil-safe on both receiver and vec.
func (st *StageTimer) FlushTo(vec *HistogramVec) (time.Duration, []StageDur) {
	total, stages := st.Finish()
	if st == nil || vec == nil {
		return total, stages
	}
	cluster := st.Cluster()
	for _, sd := range stages {
		vec.With(sd.Kind.String(), cluster).Observe(float64(sd.Dur.Microseconds()))
	}
	return total, stages
}

type stageTimerKey struct{}

// WithStageTimer returns a context carrying st.
func WithStageTimer(ctx context.Context, st *StageTimer) context.Context {
	if st == nil {
		return ctx
	}
	return context.WithValue(ctx, stageTimerKey{}, st)
}

// StageTimerOf returns the stage timer carried by ctx, or nil. All
// StageTimer methods tolerate nil, so callers can chain without checking.
func StageTimerOf(ctx context.Context) *StageTimer {
	if ctx == nil {
		return nil
	}
	st, _ := ctx.Value(stageTimerKey{}).(*StageTimer)
	return st
}
