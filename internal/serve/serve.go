// Package serve is the concurrent cold-start serving layer: it drives the
// full CLEAR edge lifecycle — enrol → cold-start cluster assignment →
// optional personalisation → continuous monitoring — for many users at
// once, on top of one shared read-only core.Pipeline.
//
// The moving parts:
//
//   - Session registry: every user gets a Session wrapping their state
//     machine (enrolling → assigned → finetuning → monitoring). Streamed
//     signal windows accumulate until the unlabeled assignment budget (the
//     paper's 10 %) is reached, which triggers core.Pipeline.AssignMaps;
//     labelled windows, whenever they arrive, trigger an asynchronous
//     fine-tune on a bounded worker pool; every window after assignment is
//     classified and fed to the session's edge.Monitor hysteresis.
//   - Model cache: an LRU over fine-tuned checkpoints keyed by session,
//     backed by the shared per-cluster deployments. Loading is
//     single-flighted, so concurrent triggers never duplicate a fine-tune,
//     and eviction silently falls back to the cluster checkpoint.
//   - Batched executor: a dispatcher goroutine coalesces pending inference
//     requests across sessions into minibatches, grouped by target model so
//     each group rides one nn.Model pass (model forward state is not
//     concurrency-safe; the executor is what serialises it).
//   - Backpressure: bounded queues everywhere. A full executor queue, a
//     full fine-tune queue, or a session-cap hit surfaces ErrOverloaded,
//     which the HTTP layer maps to 429/503 — load is shed, never buffered
//     unboundedly.
//   - Hardening: incoming windows are sanitised (NaN/Inf and dead-channel
//     imputation, typed ErrCorruptWindow); fine-tune builds retry with
//     capped exponential backoff behind a per-cluster circuit breaker —
//     when a cluster's breaker opens its sessions are served from the
//     shared cluster baseline (degraded mode) until a half-open probe
//     succeeds; every inference carries a context deadline (typed
//     ErrTimeout); and with a durable store every session is written
//     through as one record per lifecycle mutation and restored after a
//     crash — resuming personalised from its persisted checkpoint, or on
//     the cluster baseline until its labels replay a fine-tune.
//
// Everything is instrumented through internal/obs: serve.sessions gauge,
// serve.batch_size histogram, serve.queue_depth gauge, per-window latency
// histograms, shed/cache counters, and retry/degraded/corrupt-window
// counters, plus labeled series (serve.http_requests{endpoint,code},
// serve.windows_served{cluster,degraded}, serve.breaker_state{cluster},
// serve.finetunes_by{cluster,outcome}) exported in Prometheus text form
// at /metrics. Every request runs under an obs.Trace (W3C traceparent
// ingest/echo) held in a bounded tail-sampled store queryable at
// /v1/traces/<id>, and every session keeps a flight recorder — a bounded
// ring of lifecycle events (flight.go) surfaced in status JSON and
// persisted across crash restores.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Typed errors. The HTTP layer maps them to status codes; embedded callers
// branch with errors.Is.
var (
	// ErrOverloaded reports that a bounded resource (session slots, the
	// inference queue, or the fine-tune queue) is full and the request was
	// shed. Clients should back off and retry.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrSessionNotFound reports an unknown session ID.
	ErrSessionNotFound = errors.New("serve: session not found")
	// ErrSessionClosed reports an operation on a closed session.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrBadRequest reports malformed input (bad shapes, labels out of
	// range, non-positive window budgets).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrShutdown reports that the server is draining.
	ErrShutdown = errors.New("serve: shutting down")
	// ErrTimeout reports that an inference missed its context deadline
	// (mapped to 504).
	ErrTimeout = errors.New("serve: inference deadline exceeded")
	// ErrCorruptWindow reports a window whose NaN/Inf or dead-channel
	// damage could not be repaired from the session's history (mapped to
	// 422).
	ErrCorruptWindow = errors.New("serve: corrupt window")
	// ErrBadSnapshot reports a malformed stored session record.
	ErrBadSnapshot = errors.New("serve: bad session snapshot")
	// ErrTraceNotFound reports a trace id absent from the trace store
	// (never recorded, shed by tail-sampling, or already evicted).
	ErrTraceNotFound = errors.New("serve: trace not found")
	// ErrNotDurable reports durability admission control: the write-behind
	// replay queue is saturated, so new sessions are shed (503 +
	// Retry-After) rather than accepting writes we cannot make durable.
	ErrNotDurable = errors.New("serve: durability at risk: replay queue saturated")
	// ErrStoreUnavailable reports a store failure on the hydrate path —
	// the session may exist but cannot be loaded right now (503 +
	// Retry-After; another replica or a later retry may succeed).
	ErrStoreUnavailable = errors.New("serve: durable store unavailable")
	// ErrDraining reports graceful-drain admission control: this replica is
	// leaving the ring, so new session creates are shed (503 + Retry-After
	// — another replica accepts them) while established sessions keep
	// serving until their handoff completes.
	ErrDraining = errors.New("serve: draining: not accepting new sessions")
)

// Serving telemetry, all on the default obs registry.
var (
	gSessions     = obs.GetGauge("serve.sessions")
	mSessionsOpen = obs.GetCounter("serve.sessions_opened")
	mWindows      = obs.GetCounter("serve.windows")
	mShed         = obs.GetCounter("serve.shed")
	hWindowUS     = obs.GetHistogram("serve.window_latency_us", obs.ExpBuckets(1, 2, 26))

	mFTRetries     = obs.GetCounter("serve.finetune_retries")
	mFTGiveups     = obs.GetCounter("serve.finetune_giveups")
	mFTSuppressed  = obs.GetCounter("serve.finetune_suppressed")
	mDegradedInfer = obs.GetCounter("serve.degraded_inferences")

	// Labeled hot-path series. Cardinality is bounded by construction
	// (endpoints and clusters are small fixed sets, codes a handful) and by
	// the vec's own cap as a backstop.
	mHTTPReqVec = obs.GetCounterVec("serve.http_requests", "endpoint", "code")
	hHTTPLatVec = obs.GetHistogramVec("serve.http_latency_us", obs.ExpBuckets(1, 2, 26), "endpoint")
	mWindowsVec = obs.GetCounterVec("serve.windows_served", "cluster", "degraded")
	mFTByVec    = obs.GetCounterVec("serve.finetunes_by", "cluster", "outcome")
	gBreakerVec = obs.GetGaugeVec("serve.breaker_state", "cluster")

	// Per-request stage attribution (obs.StageTimer): one histogram per
	// {stage, cluster}. Shares http_latency_us's bucket layout so the
	// reconciliation invariant (Σ stage sums ≈ Σ end-to-end) compares like
	// with like.
	hStageUS = obs.GetHistogramVec("serve.stage_latency_us", obs.ExpBuckets(1, 2, 26), "stage", "cluster")
)

// clusterLabel renders a cluster index as a metric label value.
func clusterLabel(k int) string { return strconv.Itoa(k) }

// Config parameterises a Server. The zero value is usable: every field
// defaults to something sensible for a laptop-scale deployment. A field
// exists where two callers need different values (the binaries, the drift
// experiment, a test provoking a condition) or it is a deployment setting;
// a value with one user is a constant next to the code that reads it.
type Config struct {
	// MaxSessions caps live (non-closed) sessions; creation beyond it
	// sheds with ErrOverloaded. Default 1024.
	MaxSessions int
	// MaxWindows caps a session's expectedWindows, which in turn caps how
	// many raw feature maps the session retains — the per-session memory
	// bound. Creation beyond it is ErrBadRequest. Default 4096.
	MaxWindows int
	// Device is the simulated execution platform sessions run on (sets
	// numeric precision and the monitor's latency/energy model).
	// Default edge.GPU() (native precision).
	Device edge.Device
	// MaxDelay bounds the executor's coalescing: a minibatch dispatches
	// when 16 requests are pending or the oldest has waited MaxDelay.
	// Default 2ms.
	MaxDelay time.Duration
	// FineTuneWorkers and FineTuneQueue size the personalisation pool.
	// Defaults 2 and 32.
	FineTuneWorkers int
	FineTuneQueue   int

	// FineTuneRetries is the total build attempts per queued fine-tune
	// job (first try + retries), with capped exponential backoff between
	// attempts. Default 3.
	FineTuneRetries int
	// FineTuneBackoff is the base backoff before the first retry; each
	// further retry doubles it, capped at 1s, with ±50 % jitter. Default
	// 25ms.
	FineTuneBackoff time.Duration
	// BreakerThreshold and BreakerCooldown parameterise the per-cluster
	// circuit breaker over fine-tune builds: after Threshold consecutive
	// failures the cluster's breaker opens for Cooldown, during which its
	// sessions are served from the shared cluster baseline (degraded
	// mode); the first build after the cooldown is a half-open probe.
	// Defaults 3 and 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Self-healing assignment (see drift.go). DriftWindow is the rolling
	// evidence ring size in windows; DriftThreshold the relative score
	// gap a window must show for the rolling assignment to count as
	// drift-positive; DriftConsecutive how many consecutive positives
	// raise a verdict (one more confirms it); DriftCooldown how many
	// windows after a swap further verdicts are suppressed (flap guard).
	// Defaults 8, 0.05, 4, 64. DriftDisabled turns the detector off.
	DriftWindow      int
	DriftThreshold   float64
	DriftConsecutive int
	DriftCooldown    int
	DriftDisabled    bool

	// Store, when non-nil, enables durable session persistence through
	// internal/store: each session is written through, as one record, on
	// every lifecycle mutation (create, retained window, labels,
	// assignment, fine-tune, close), flushed again every SnapshotInterval
	// (default 10s) and on Shutdown, and hydrated back on boot
	// (RestoreAll) or on demand when a request reaches a replica that
	// doesn't hold the session live (migration after a topology change).
	// Fine-tuned models persist alongside as content-addressed blobs.
	Store store.Store
	// Self identifies this replica as a lease owner in Store (fine-tune
	// leases) and as the advertised node name in router mode. Default
	// "local".
	Self string
	// OwnsID, when set, restricts session-ID minting: CreateSession
	// advances the sequence counter until OwnsID accepts the ID. Router
	// deployments set this to the consistent-hash ownership predicate so
	// locally-minted IDs are always locally-owned — ownership partitions
	// the ID space, so replicas can never mint colliding IDs.
	OwnsID func(id string) bool
	// SnapshotInterval is the periodic FlushAll cadence when Store is set.
	SnapshotInterval time.Duration
	// Write-behind durability (writebehind.go), active when Store is set:
	// StoreBreakerThreshold consecutive persist failures open the
	// store-health breaker for StoreBreakerCooldown (persists then skip
	// the store and queue directly; the first persist after the cooldown
	// is the half-open probe). ReplayQueueCap bounds the per-node replay
	// queue; at saturation new session creates shed with ErrNotDurable.
	// Defaults 3, 2s, 256.
	StoreBreakerThreshold int
	StoreBreakerCooldown  time.Duration
	ReplayQueueCap        int

	// SLO engine (internal/obs/slo.go): a multi-window burn-rate tracker
	// over the serving HTTP metrics (availability = non-5xx fraction,
	// latency = fraction of requests under SLOLatencyBoundUS), served at
	// /v1/slo. On a fast burn the server captures CPU/heap pprof profiles
	// into the bounded on-disk ring at ProfileDir (disabled when empty)
	// and stamps an always-kept "slo.breach" trace. The objectives are
	// fixed (availability 0.999; 99 % of requests under the latency bound;
	// fast burn at 10× budget); the tunables are the latency bound
	// (default 262144µs, a http_latency_us bucket edge), the windows
	// (30s/5m), the sampling interval (1s) and the event floor (10).
	SLOLatencyBoundUS float64
	SLOShortWindow    time.Duration
	SLOLongWindow     time.Duration
	SLOInterval       time.Duration
	SLOMinEvents      int64

	// Triggered profile capture (internal/obs/profcap.go). ProfileDir
	// empty disables capture; the on-disk ring holds 8 cpu+heap pairs;
	// ProfileCPUDur is the CPU profile length (default 250ms);
	// ProfileMinGap the storm guard between captures (default 10s).
	ProfileDir    string
	ProfileCPUDur time.Duration
	ProfileMinGap time.Duration

	// Fault, when non-nil, arms deterministic fault injection (chaos
	// testing): build failures, inference stalls, window corruption. The
	// production path pays only nil checks when unset.
	Fault *fault.Injector
	// ChaosAdmin mounts POST /v1/chaos (chaos.go): runtime-armed
	// store-outage and inbound-partition windows for chaos harness runs.
	// Never enable in production.
	ChaosAdmin bool
	// MembershipAdmin arms POST /v1/membership (membership.go): runtime
	// ring mutations (join / leave / drain). Gated like ChaosAdmin — the
	// endpoint answers 403 when false. Read-only membership views (GET) and
	// the replica-to-replica sync protocol are always available in router
	// mode.
	MembershipAdmin bool
}

func (c *Config) fillDefaults() {
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxWindows == 0 {
		c.MaxWindows = 4096
	}
	if c.Device.Name == "" {
		c.Device = edge.GPU()
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.FineTuneWorkers == 0 {
		c.FineTuneWorkers = 2
	}
	if c.FineTuneQueue == 0 {
		c.FineTuneQueue = 32
	}
	if c.FineTuneRetries == 0 {
		c.FineTuneRetries = 3
	}
	if c.FineTuneBackoff == 0 {
		c.FineTuneBackoff = 25 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.DriftWindow == 0 {
		c.DriftWindow = 8
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.05
	}
	if c.DriftConsecutive == 0 {
		c.DriftConsecutive = 4
	}
	if c.DriftCooldown == 0 {
		c.DriftCooldown = 64
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 10 * time.Second
	}
	if c.Self == "" {
		c.Self = "local"
	}
	if c.StoreBreakerThreshold == 0 {
		c.StoreBreakerThreshold = 3
	}
	if c.StoreBreakerCooldown == 0 {
		c.StoreBreakerCooldown = 2 * time.Second
	}
	if c.ReplayQueueCap == 0 {
		c.ReplayQueueCap = 256
	}
	if c.SLOLatencyBoundUS == 0 {
		c.SLOLatencyBoundUS = 262_144 // 2^18 µs, an ExpBuckets(1,2,26) edge
	}
	if c.SLOLongWindow == 0 {
		c.SLOLongWindow = 5 * time.Minute
	}
	// The other SLO fields and ProfileCPUDur take their defaults inside
	// obs (SLOConfig.fillDefaults, NewProfileCapturer).
	if c.ProfileMinGap == 0 {
		c.ProfileMinGap = 10 * time.Second
	}
}

// Server owns the session registry and the shared serving machinery.
type Server struct {
	cfg   Config
	pipe  *core.Pipeline
	exec  *Executor
	cache *ModelCache

	// deps holds one shared read-only deployment per cluster (the model
	// every un-personalised session in that cluster is served from).
	deps []*edge.Deployment

	// breakers guard each cluster's fine-tune builds; gBreaker mirrors
	// their state onto the obs registry as serve.breaker_state{cluster}
	// (0 closed, 1 open, 2 half-open). brState remembers the last state
	// published per cluster so transitions land exactly once in the
	// affected session's flight recorder.
	breakers []*Breaker
	gBreaker []*obs.Gauge
	brMu     sync.Mutex
	brState  []BreakerState

	// traces is the bounded tail-sampled request/job trace store behind
	// GET /v1/traces/{id}.
	traces *obs.TraceStore

	// journal is the node's bounded cluster event journal behind
	// GET /v1/events (and the per-node segment of the /v1/fleet merge).
	journal *obs.Journal

	// slo is the burn-rate tracker behind /v1/slo; profcap the triggered
	// pprof ring (nil when ProfileDir unset).
	// sloEvents remembers the last few breach/capture events.
	slo       *obs.SLOTracker
	profcap   *obs.ProfileCapturer
	sloEvMu   sync.Mutex
	sloEvents []SLOEvent

	// clusterArchetype, when set by the embedding binary, maps each
	// cluster to the dominant ground-truth archetype of its training
	// users (synthetic-data diagnostic; -1 when unknown).
	clusterArchetype []int

	ftq      chan ftJob
	ftWG     sync.WaitGroup
	ftMu     sync.RWMutex // guards ftClosed against enqueue/Shutdown races
	ftClosed bool
	stopc    chan struct{} // closed on Shutdown; aborts backoff sleeps and the snapshotter

	jmu   sync.Mutex
	jrand *rand.Rand // backoff jitter

	snapWG sync.WaitGroup

	// wb is the write-behind replay queue + store-health breaker (nil
	// without a store).
	wb *writeBehind

	// partUntil, when in the future, is the chaos partition gate's
	// deadline: every request (except /v1/chaos) stalls until then and
	// answers 503 without reaching its handler (chaos.go).
	partUntil int64 // atomic, UnixNano

	// chaos tracks runtime-armed fault windows (chaos.go).
	chaos chaosState

	// ring is the router this replica serves under (nil single-replica),
	// stored once by NewRouter. The Server reads it in four places: Stats
	// (shard + membership blocks), handleHealthz (epoch, hash, draining),
	// persistSessionDirect (the {epoch, seq} fence, so a lagging ex-owner's
	// stale write loses at the store) and CreateSessionCtx (creates shed
	// while the router drains).
	ring atomic.Pointer[Router]

	mu       sync.RWMutex
	sessions map[string]*Session
	seq      int64
	draining bool

	start time.Time
}

// ftJob is one queued personalisation. k is the session's assigned cluster
// (fixed at enqueue time; the breaker it answers to).
type ftJob struct {
	s *Session
	e *cacheEntry
	k int
}

// Fixed sizes of the shared serving machinery New builds.
const (
	execMaxBatch   = 16   // executor minibatch bound
	execQueueDepth = 256  // executor pending-request queue; beyond it submissions shed
	modelCacheSize = 64   // fine-tuned checkpoint LRU capacity
	traceCapacity  = 4096 // request-trace store (FIFO eviction)
	traceOKPerSec  = 64   // tail-sampling budget for successful traces; errored ones are always kept
	journalEvents  = 256  // cluster event journal ring behind /v1/events
)

// New builds a server over a trained pipeline. The pipeline must have
// models (core.Train or core.Load output, not ClusterOnly).
func New(pipe *core.Pipeline, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if pipe == nil || len(pipe.Models) == 0 || pipe.Models[0] == nil {
		return nil, fmt.Errorf("%w: pipeline has no trained models", ErrBadRequest)
	}
	s := &Server{
		cfg:      cfg,
		pipe:     pipe,
		sessions: make(map[string]*Session),
		ftq:      make(chan ftJob, cfg.FineTuneQueue),
		stopc:    make(chan struct{}),
		jrand:    rand.New(rand.NewSource(time.Now().UnixNano())),
		start:    time.Now(),
	}
	sp := obs.StartSpan("serve.deploy_clusters")
	for k := range pipe.Models {
		s.deps = append(s.deps, edge.Deploy(pipe.ModelFor(k), cfg.Device))
	}
	sp.End()
	s.clusterArchetype = make([]int, len(s.deps))
	s.breakers = make([]*Breaker, len(s.deps))
	s.gBreaker = make([]*obs.Gauge, len(s.deps))
	s.brState = make([]BreakerState, len(s.deps))
	for k := range s.clusterArchetype {
		s.clusterArchetype[k] = -1
		s.breakers[k] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		s.gBreaker[k] = gBreakerVec.With(clusterLabel(k))
		s.gBreaker[k].Set(float64(BreakerClosed))
	}
	s.traces = obs.NewTraceStore(traceCapacity, traceOKPerSec)
	s.journal = obs.NewJournal(cfg.Self, journalEvents)
	obs.PublishNodeInfo(cfg.Self)
	s.exec = NewExecutor(execMaxBatch, cfg.MaxDelay, execQueueDepth, runtime.GOMAXPROCS(0))
	s.exec.SetWatchdog(inferTimeout)
	s.exec.SetFault(cfg.Fault)
	s.cache = NewModelCache(modelCacheSize)
	for i := 0; i < cfg.FineTuneWorkers; i++ {
		s.ftWG.Add(1)
		go s.fineTuneWorker()
	}
	if cfg.Store != nil {
		s.wb = newWriteBehind(s, cfg.ReplayQueueCap, cfg.StoreBreakerThreshold, cfg.StoreBreakerCooldown)
		s.snapWG.Add(1)
		go s.persistLoop()
	}
	if err := s.startSLO(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetClusterArchetypes records the dominant ground-truth archetype per
// cluster (a synthetic-data diagnostic exposed through Stats so load
// generators can score assignment accuracy).
func (s *Server) SetClusterArchetypes(arch []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clusterArchetype = append([]int(nil), arch...)
}

// Traces exposes the server's trace store (status endpoints, loadgen
// assertions, tests).
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// noteBreaker publishes cluster k's breaker state to the labeled gauge
// and, when the state changed since the last publication, records the
// transition in the driving session's flight recorder. sess may be nil
// (periodic refresh from Stats).
func (s *Server) noteBreaker(ctx context.Context, sess *Session, k int, st BreakerState) {
	s.brMu.Lock()
	prev := s.brState[k]
	s.brState[k] = st
	s.brMu.Unlock()
	s.gBreaker[k].Set(float64(st))
	if st != prev && sess != nil {
		sess.record(ctx, evBreaker, "cluster=%d %s→%s", k, prev, st)
	}
}

// fineTuneWorker drains the personalisation queue. Each job builds one
// session's personalised checkpoint with retry/backoff behind the
// cluster's circuit breaker, then completes the session's cache entry.
// Every job runs under its own obs.Trace, added to the trace store so a
// fine-tune (and its retries) is inspectable like any request.
func (s *Server) fineTuneWorker() {
	defer s.ftWG.Done()
	for job := range s.ftq {
		tr := obs.NewTrace("serve.finetune")
		ctx := obs.WithTrace(context.Background(), tr)
		model, err := s.buildLeased(ctx, job)
		if err != nil {
			tr.MarkError()
		}
		s.cache.complete(job.e, model, err)
		job.s.fineTuneDone(ctx, err)
		if err == nil && model != nil {
			job.s.mu.Lock()
			labels := job.s.ftLabeled
			job.s.mu.Unlock()
			s.persistCheckpoint(ctx, job.s, job.k, model, labels)
		}
		s.persistSession(ctx, job.s)
		s.traces.Add(tr)
	}
}

// buildLeased wraps buildWithRetry in a per-session fine-tune lease when
// a store is configured: exactly one replica fine-tunes a given user at a
// time, even when two replicas briefly both hold the session live during
// a consistent-hash handoff. A refused lease fails the job like a build
// failure — the session serves degraded from the cluster baseline and the
// heal path retries later, by which time the holder's checkpoint is in
// the store and hydration picks it up instead of rebuilding.
func (s *Server) buildLeased(ctx context.Context, job ftJob) (*nn.Model, error) {
	if s.cfg.Store == nil {
		return s.buildWithRetry(ctx, job)
	}
	// The TTL bounds how long a crashed replica's lease can wedge a session.
	const leaseTTL = 30 * time.Second
	lease, err := s.cfg.Store.Lock(ctx, "ft:"+job.s.id, s.cfg.Self, leaseTTL)
	if errors.Is(err, store.ErrLocked) {
		job.s.record(ctx, evFTSuppressed, "cluster=%d fine-tune leased to another replica", job.k)
		mFTSuppressed.Inc()
		return nil, fmt.Errorf("serve: session %s fine-tune leased elsewhere", job.s.id)
	}
	if err != nil {
		return nil, err
	}
	defer func() { _ = lease.Release() }()
	return s.buildWithRetry(ctx, job)
}

// buildWithRetry runs one fine-tune job: up to FineTuneRetries attempts
// with capped exponential backoff + jitter, each attempt gated by the
// cluster's breaker (which also absorbs the outcome — in half-open the
// attempt is the probe). A breaker refusal or a shutdown mid-backoff ends
// the job early, and so does a session closed under the job: that says
// nothing about the cluster's builds, so the breaker gets its slot back
// with no outcome recorded.
func (s *Server) buildWithRetry(ctx context.Context, job ftJob) (*nn.Model, error) {
	br := s.breakers[job.k]
	var lastErr error
	for attempt := 0; attempt < s.cfg.FineTuneRetries; attempt++ {
		if attempt > 0 {
			mFTRetries.Inc()
			if !s.sleepBackoff(attempt) {
				break // draining
			}
		}
		// State() promotes an elapsed-cooldown breaker to half-open, so
		// reading it here also surfaces the open→half-open transition.
		before := br.State()
		s.noteBreaker(ctx, job.s, job.k, before)
		if !br.Allow() {
			job.s.record(ctx, evFTSuppressed, "cluster=%d attempt=%d breaker=%s", job.k, attempt, before)
			if lastErr == nil {
				lastErr = fmt.Errorf("serve: cluster %d circuit breaker open", job.k)
			}
			break
		}
		job.s.record(ctx, evFTAttempt, "cluster=%d attempt=%d breaker=%s", job.k, attempt, before)
		m, err := job.s.runFineTune(ctx)
		if errors.Is(err, ErrSessionClosed) {
			br.Release()
			return nil, err
		}
		br.Done(err)
		s.noteBreaker(ctx, job.s, job.k, br.State())
		if err == nil {
			return m, nil
		}
		lastErr = err
	}
	mFTGiveups.Inc()
	return nil, lastErr
}

// sleepBackoff waits out the attempt-th backoff (base·2^(attempt−1) capped,
// ±50 % jitter), returning false if the server began draining first.
func (s *Server) sleepBackoff(attempt int) bool {
	const backoffCap = time.Second
	d := s.cfg.FineTuneBackoff << (attempt - 1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	s.jmu.Lock()
	d = d/2 + time.Duration(s.jrand.Int63n(int64(d)))
	s.jmu.Unlock()
	select {
	case <-time.After(d):
		return true
	case <-s.stopc:
		return false
	}
}

// enqueueFineTune places a job on the bounded pool, shedding when full and
// refusing with ErrShutdown while draining. The send happens under ftMu's
// read lock so it can never race Shutdown's close of the channel (the same
// closed/mu pattern Executor.Submit uses).
func (s *Server) enqueueFineTune(job ftJob) error {
	s.ftMu.RLock()
	defer s.ftMu.RUnlock()
	if s.ftClosed {
		return ErrShutdown
	}
	select {
	case s.ftq <- job:
		return nil
	default:
		mShed.Inc()
		return fmt.Errorf("%w: fine-tune queue full", ErrOverloaded)
	}
}

// CreateSession registers a new user session. expectedWindows is how many
// signal windows the client intends to stream in total (it sizes the
// unlabeled assignment budget and caps how many raw maps the session
// retains; it must not exceed Config.MaxWindows); assignFrac overrides the
// paper's 10 % unlabeled budget when positive. userID is an opaque
// client-chosen identifier echoed in status output.
func (s *Server) CreateSession(userID int, expectedWindows int, assignFrac float64) (*Session, error) {
	return s.CreateSessionCtx(context.Background(), userID, expectedWindows, assignFrac)
}

// CreateSessionCtx is CreateSession with request-scoped tracing: the
// session's "created" flight event is correlated with the trace in ctx.
func (s *Server) CreateSessionCtx(ctx context.Context, userID int, expectedWindows int, assignFrac float64) (*Session, error) {
	if expectedWindows < 1 {
		return nil, fmt.Errorf("%w: expected_windows must be ≥ 1", ErrBadRequest)
	}
	if expectedWindows > s.cfg.MaxWindows {
		return nil, fmt.Errorf("%w: expected_windows %d exceeds cap %d",
			ErrBadRequest, expectedWindows, s.cfg.MaxWindows)
	}
	if assignFrac < 0 || assignFrac > 1 {
		return nil, fmt.Errorf("%w: assign_frac must be in [0,1]", ErrBadRequest)
	}
	if assignFrac == 0 {
		assignFrac = 0.10 // the paper's unlabeled cold-start budget
	}
	if s.wb != nil && s.wb.saturated() {
		// Durability admission control: the replay queue is full, so a new
		// session's writes could not be made durable. Shed the create (503
		// + Retry-After) instead of accepting state we might lose;
		// established sessions keep serving.
		mShed.Inc()
		mWBShed.Inc()
		return nil, fmt.Errorf("%w (queue %d)", ErrNotDurable, s.wb.depth())
	}
	// Graceful drain: this replica is leaving the ring. Only creates are
	// shed (another member accepts them after one Retry-After); established
	// sessions keep serving until their hand-off lands. Draining is read
	// before s.mu: a hand-off holds the drain lock while it takes s.mu, so
	// reading it under s.mu would invert that order. A create that slips
	// past as the drain begins is handed off by the drain pass.
	rt := s.ring.Load()
	if rt != nil && rt.Draining() {
		mShed.Inc()
		return nil, ErrDraining
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		mShed.Inc()
		return nil, fmt.Errorf("%w: session cap %d reached", ErrOverloaded, s.cfg.MaxSessions)
	}
	s.seq++
	id := fmt.Sprintf("s%06d", s.seq)
	// Mint-until-owned: advance the counter until it lands on an ID this
	// replica owns under the consistent-hash ring (no-op without OwnsID).
	// The cap guards against a predicate that rejects everything.
	for i := 0; s.cfg.OwnsID != nil && !s.cfg.OwnsID(id); i++ {
		if i >= 1<<16 {
			s.mu.Unlock()
			if rt != nil && rt.Draining() {
				// The drain left the ring after the check above.
				mShed.Inc()
				return nil, ErrDraining
			}
			return nil, fmt.Errorf("%w: cannot mint a locally-owned session id", ErrOverloaded)
		}
		s.seq++
		id = fmt.Sprintf("s%06d", s.seq)
	}
	sess := newSession(s, id, userID, expectedWindows, assignFrac)
	s.sessions[sess.id] = sess
	mSessionsOpen.Inc()
	gSessions.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	sess.record(ctx, evCreated, "user=%d expected_windows=%d assign_frac=%.3f",
		userID, expectedWindows, assignFrac)
	s.persistSession(ctx, sess)
	return sess, nil
}

// Session looks a live session up by ID.
func (s *Server) Session(id string) (*Session, error) {
	return s.SessionCtx(context.Background(), id)
}

// SessionCtx is Session with on-demand store hydration: an ID absent from
// the live registry but present in the durable store is hydrated into the
// registry before returning — the migration path after a consistent-hash
// topology change, where the session's new owner pulls its state (and any
// fine-tuned checkpoint) from the store on first touch.
func (s *Server) SessionCtx(ctx context.Context, id string) (*Session, error) {
	s.mu.RLock()
	sess, ok := s.sessions[id]
	s.mu.RUnlock()
	if ok {
		return sess, nil
	}
	if s.cfg.Store == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	stop := obs.StageTimerOf(ctx).Time(obs.StageStore)
	defer stop()
	sess, err := s.hydrateSession(ctx, id)
	if err != nil && !errors.Is(err, ErrSessionNotFound) && !errors.Is(err, ErrBadSnapshot) {
		// The store failed mid-hydration (as opposed to the session being
		// genuinely absent or its record corrupt): surface as retriable
		// 503 so clients fail over to a replica with the session live.
		return nil, fmt.Errorf("%w: %v", ErrStoreUnavailable, err)
	}
	return sess, err
}

// CloseSession removes a session from the registry and releases its cached
// fine-tuned checkpoint. Closing an unknown ID is ErrSessionNotFound.
func (s *Server) CloseSession(id string) error {
	return s.CloseSessionCtx(context.Background(), id)
}

// CloseSessionCtx is CloseSession with request-scoped tracing.
func (s *Server) CloseSessionCtx(ctx context.Context, id string) error {
	sess := s.detach(id)
	if sess == nil {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	sess.record(ctx, evClosed, "")
	if s.cfg.Store != nil {
		// A closed session's lifecycle is complete: drop its durable
		// record and manifest (shared blobs stay — other sessions may
		// reference the same cluster baseline). Failed deletes are
		// surfaced, not swallowed: a leaked record costs storage and a
		// spurious hydration, so it must be visible in metrics.
		if err := s.cfg.Store.DeleteSession(ctx, id); err != nil {
			s.notePersistFailure(ctx, sess, "delete_session", err)
		}
		if err := s.cfg.Store.DeleteCheckpoint(ctx, id); err != nil {
			s.notePersistFailure(ctx, sess, "delete_checkpoint", err)
		}
		s.wb.remove(id)
	}
	return nil
}

// detach removes id from the live registry, closes the session and
// releases its cached fine-tuned checkpoint, leaving the durable record
// alone — so it is also the eviction step of a hand-off, where the new
// owner hydrates from that record. It returns the session, or nil when
// id is not live.
func (s *Server) detach(id string) *Session {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		gSessions.Set(float64(len(s.sessions)))
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	sess.close()
	if m := s.cache.Remove(id); m != nil {
		s.exec.Forget(m)
	}
	return sess
}

// Shutdown drains the server: no new sessions, the fine-tune pool finishes
// queued jobs (aborting pending backoff sleeps), the executor completes
// pending inferences, and — when a store is configured — every live
// session is flushed through it so a restart (or the session's next
// owner) restores every live session.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ftMu.Lock()
	if !s.ftClosed {
		s.ftClosed = true
		close(s.stopc)
		close(s.ftq) // enqueueFineTune holds ftMu's RLock while sending
	}
	s.ftMu.Unlock()
	s.ftWG.Wait()
	s.exec.Close()
	s.slo.Stop()
	s.snapWG.Wait()
	// A departing replica's final flush is the migration handoff: every
	// hot session lands in the store so the next owner hydrates it.
	s.FlushAll(context.Background())
}

// StateCounts tallies live sessions by state.
func (s *Server) StateCounts() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]int{}
	for _, sess := range s.sessions {
		out[sess.State().String()]++
	}
	return out
}

// Stats is the aggregate surface behind GET /v1/stats.
type Stats struct {
	// Node is this replica's node name (Config.Self), so a fleet scrape
	// can attribute every stats block without tracking request targets.
	Node            string         `json:"node"`
	UptimeSec       float64        `json:"uptime_sec"`
	Sessions        int            `json:"sessions"`
	SessionsOpened  int64          `json:"sessions_opened"`
	SessionsByState map[string]int `json:"sessions_by_state"`
	Windows         int64          `json:"windows"`
	Shed            int64          `json:"shed"`
	Clusters        int            `json:"clusters"`
	ClusterSizes    []int          `json:"cluster_sizes"`
	// ClusterArchetypes maps cluster → dominant training archetype
	// (synthetic-data diagnostic; -1 when unknown).
	ClusterArchetypes []int  `json:"cluster_archetypes"`
	Device            string `json:"device"`

	// Robustness surface: per-cluster breaker states, degraded-mode
	// session/inference accounting, sanitisation counters, and fine-tune
	// retry totals.
	Breakers           []string `json:"breakers"`
	DegradedSessions   int      `json:"degraded_sessions"`
	DegradedInferences int64    `json:"degraded_inferences"`
	CorruptWindows     int64    `json:"corrupt_windows"`
	ImputedWindows     int64    `json:"imputed_windows"`
	RejectedWindows    int64    `json:"rejected_windows"`
	FineTuneRetries    int64    `json:"finetune_retries"`
	FineTuneGiveups    int64    `json:"finetune_giveups"`
	RestoredSessions   int64    `json:"restored_sessions"`
	Snapshots          int64    `json:"snapshots"`

	// Durable-store surface: write-through persists / hydrations /
	// checkpoint cuts, plus the backend's own census (sessions stored,
	// physical vs logical blobs — the content-address dedup ratio).
	SessionPersists    int64        `json:"session_persists"`
	PersistErrors      int64        `json:"persist_errors"`
	HydratedSessions   int64        `json:"hydrated_sessions"`
	CheckpointPersists int64        `json:"checkpoint_persists"`
	CheckpointHits     int64        `json:"checkpoint_hydrations"`
	Store              *store.Stats `json:"store,omitempty"`
	// WriteBehind is the store-outage resilience surface: replay queue
	// depth/bound, enqueue/replay/drop/shed totals, and the store-health
	// breaker position (store mode only).
	WriteBehind *WriteBehindStats `json:"write_behind,omitempty"`
	// Shard is the consistent-hash routing surface (router mode only):
	// ring membership, local ownership share, forward/failover counters.
	Shard *ShardStats `json:"shard,omitempty"`
	// Membership is the live-topology surface (router mode only): the ring
	// epoch, member set and hash, plus drain progress while this replica is
	// leaving the ring.
	Membership *MembershipStats `json:"membership,omitempty"`

	// Self-healing assignment surface: verdict/re-assignment/flap
	// suppression totals, plus how many live sessions have re-assigned at
	// least once and the largest cumulative drift-evidence score any live
	// session currently carries.
	DriftVerdicts      int64   `json:"drift_verdicts"`
	DriftReassigns     int64   `json:"drift_reassigns"`
	DriftSuppressed    int64   `json:"drift_suppressed"`
	ReassignedSessions int     `json:"reassigned_sessions"`
	MaxDriftScore      float64 `json:"max_drift_score"`

	Cache    CacheStats    `json:"cache"`
	Executor ExecutorStats `json:"executor"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	n := len(s.sessions)
	arch := append([]int(nil), s.clusterArchetype...)
	degraded, reassigned := 0, 0
	maxDrift := 0.0
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.degraded {
			degraded++
		}
		if sess.reassigns > 0 {
			reassigned++
		}
		if sess.drift != nil && sess.drift.score > maxDrift {
			maxDrift = sess.drift.score
		}
		sess.mu.Unlock()
	}
	s.mu.RUnlock()
	brs := make([]string, len(s.breakers))
	for k, b := range s.breakers {
		st := b.State()
		brs[k] = st.String()
		s.noteBreaker(context.Background(), nil, k, st)
	}
	st := Stats{
		Node:               s.cfg.Self,
		UptimeSec:          time.Since(s.start).Seconds(),
		Sessions:           n,
		SessionsOpened:     mSessionsOpen.Value(),
		SessionsByState:    s.StateCounts(),
		Windows:            mWindows.Value(),
		Shed:               mShed.Value(),
		Clusters:           len(s.deps),
		ClusterSizes:       s.pipe.ClusterSizes(),
		ClusterArchetypes:  arch,
		Device:             s.cfg.Device.Name,
		Breakers:           brs,
		DegradedSessions:   degraded,
		DegradedInferences: mDegradedInfer.Value(),
		CorruptWindows:     mCorruptWindows.Value(),
		ImputedWindows:     mImputedWindows.Value(),
		RejectedWindows:    mRejectedWindows.Value(),
		FineTuneRetries:    mFTRetries.Value(),
		FineTuneGiveups:    mFTGiveups.Value(),
		RestoredSessions:   mRestored.Value(),
		Snapshots:          mSnapshots.Value(),
		DriftVerdicts:      mDriftVerdicts.Value(),
		DriftReassigns:     mDriftReassigns.Value(),
		DriftSuppressed:    mDriftSuppressed.Value(),
		ReassignedSessions: reassigned,
		MaxDriftScore:      maxDrift,
		Cache:              s.cache.Stats(),
		Executor:           s.exec.Stats(),
	}
	st.SessionPersists = mPersists.Value()
	st.PersistErrors = mPersistErrs.Value()
	st.HydratedSessions = mHydrated.Value()
	st.CheckpointPersists = mCkptPersists.Value()
	st.CheckpointHits = mCkptHits.Value()
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
		st.WriteBehind = s.wb.statsSnap()
	}
	if rt := s.ring.Load(); rt != nil {
		st.Shard = rt.stats()
		st.Membership = rt.membStats()
	}
	return st
}

// HasLocal reports whether id is live in this replica's registry (no
// store hydration — the router's drain path uses it to keep serving
// sessions whose handoff hasn't landed yet).
func (s *Server) HasLocal(id string) bool { return s.live(id) != nil }

// live returns the live local session id, or nil — a registry lookup
// that, unlike Session, never hydrates from the store.
func (s *Server) live(id string) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// LocalIDs returns the IDs of all live local sessions.
func (s *Server) LocalIDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	return ids
}

// BreakerFor exposes cluster k's breaker (nil when out of range) so
// embedding binaries and tests can inspect or trip it.
func (s *Server) BreakerFor(k int) *Breaker {
	if k < 0 || k >= len(s.breakers) {
		return nil
	}
	return s.breakers[k]
}

// tensorT shortens signatures below.
type tensorT = tensor.Tensor
