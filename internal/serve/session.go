package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/wemac"
)

// State is a session's position in the CLEAR edge lifecycle.
type State int32

// The lifecycle is linear with one loop: labels arriving after
// personalisation send the session back through FineTuning.
const (
	// StateEnrolling: unlabeled windows accumulate toward the cold-start
	// assignment budget; nothing is classified yet.
	StateEnrolling State = iota
	// StateAssigned: cold-start assignment done; windows are classified
	// with the shared cluster checkpoint while personalisation is still
	// possible.
	StateAssigned
	// StateFineTuning: an asynchronous fine-tune is in flight; windows
	// keep being classified with the current (shared) checkpoint.
	StateFineTuning
	// StateMonitoring: the personalised checkpoint is live.
	StateMonitoring
	// StateClosed: the session was removed; all operations fail.
	StateClosed
	// StateDrifting: the drift detector's evidence streak hit the verdict
	// threshold; one more drift-positive window confirms and triggers
	// re-assignment, a contradicting window returns the session to its
	// resting state. Windows keep being classified throughout.
	// (Appended after StateClosed so persisted snapshot state ints stay
	// stable across versions.)
	StateDrifting
	// StateReassigning: the assignment was swapped to the
	// evidence-preferred cluster and the session's retained labels are
	// replaying through a fresh fine-tune; windows are served from the
	// new cluster's shared baseline meanwhile.
	StateReassigning
)

func (s State) String() string {
	switch s {
	case StateEnrolling:
		return "enrolling"
	case StateAssigned:
		return "assigned"
	case StateFineTuning:
		return "finetuning"
	case StateMonitoring:
		return "monitoring"
	case StateClosed:
		return "closed"
	case StateDrifting:
		return "drifting"
	case StateReassigning:
		return "reassigning"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Fine-tune telemetry (concurrent path → metrics, not spans).
var (
	hFineTuneMS  = obs.GetHistogram("serve.finetune_ms", obs.ExpBuckets(1, 2, 20))
	mFineTuneErr = obs.GetCounter("serve.finetune_errors")
)

// Session is one user's serving state. All fields behind mu; the heavy
// work (normalisation, inference, fine-tuning) happens outside the lock.
type Session struct {
	id     string
	userID int
	srv    *Server

	mu       sync.Mutex
	state    State
	expected int
	assignAt int
	frac     float64
	pushed   int        // total windows ever streamed
	maps     []*tensorT // raw feature maps in arrival order, capped at expected
	labels   map[int]int
	asg      core.Assignment
	haveAsg  bool
	mon      *edge.Monitor

	personalized bool
	ftInFlight   bool
	ftLabeled    int // len(labels) when the last fine-tune was snapshotted
	// degraded marks a session whose personalisation failed or was
	// suppressed by an open breaker: it is served from the shared cluster
	// baseline until a later fine-tune succeeds.
	degraded bool
	// restored marks a session recovered from a registry snapshot.
	restored bool
	// healArmed guards the session's single pending self-heal timer (see
	// scheduleHealLocked).
	healArmed bool
	// drift is the session's rolling re-assignment evidence (see
	// drift.go); nil until the first post-assignment window when the
	// detector is enabled.
	drift *driftTracker
	// reassigns counts self-healing assignment swaps; prevCluster is the
	// cluster the latest swap left (-1 when none).
	reassigns   int
	prevCluster int
	lastEvent   *edge.Event
	created     time.Time

	// flight is the session's lifecycle event ring (see flight.go). It has
	// its own mutex and is safe to append to with or without mu held.
	flight *flightRecorder

	// fenceSeq numbers this replica's persists of the session. A persist
	// draws it under mu together with its snapshot, so a newer snapshot
	// always carries a higher seq. Hydration seeds it from the stored
	// record, so a session handed between owners keeps one monotonic
	// sequence and a writer that is strictly behind the store is fenced
	// off (snapshot.go).
	fenceSeq uint64
	// fenceEpoch is the fence epoch of the record the session was hydrated
	// from (0 for a session created here), set before the session is
	// published. A ringless replica fences at it, since the store rejects
	// any write below the epoch it already holds.
	fenceEpoch uint64
}

func newSession(srv *Server, id string, userID, expected int, frac float64) *Session {
	return &Session{
		id:          id,
		userID:      userID,
		srv:         srv,
		state:       StateEnrolling,
		expected:    expected,
		assignAt:    wemac.BudgetWindows(expected, frac),
		frac:        frac,
		labels:      map[int]int{},
		prevCluster: -1,
		created:     time.Now(),
		flight:      newFlightRecorder(),
	}
}

// ID returns the registry key.
func (s *Session) ID() string { return s.id }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// WindowResult is the outcome of one PushWindow call.
type WindowResult struct {
	SessionID string
	State     State
	Windows   int
	// Assignment is set from the window that triggers cold-start
	// assignment onward.
	Assignment *core.Assignment
	// Event and Probs are set for classified windows (post-assignment).
	Event *edge.Event
	Probs []float64
	// Personalized reports whether the fine-tuned checkpoint served this
	// window.
	Personalized bool
	// Degraded reports that the session wanted personalisation but is being
	// served from the shared cluster baseline (fine-tune failed or its
	// cluster's circuit breaker is open).
	Degraded bool
	// Imputed reports that the window arrived damaged (NaN/Inf cells or a
	// dead sensor channel) and was repaired from the session's history
	// before use.
	Imputed bool
	// Reassigned reports that this window confirmed a drift verdict and
	// the session self-healed onto another cluster; Assignment already
	// reflects the new cluster.
	Reassigned bool
	// BatchSize and QueueWait are the executor's accounting for this
	// window's inference.
	BatchSize int
	QueueWait time.Duration
}

// inferTimeout is the per-window inference deadline applied when the
// caller's context carries none; it doubles as the executor's stalled-pass
// watchdog.
const inferTimeout = 10 * time.Second

// PushWindow ingests one raw feature map with no caller deadline (the
// server's inferTimeout still applies to the inference).
func (s *Session) PushWindow(m *tensorT) (WindowResult, error) {
	return s.PushWindowCtx(context.Background(), m)
}

// PushWindowCtx ingests one raw feature map for the session. During
// enrolment it only accumulates (and possibly triggers assignment); after
// assignment it classifies the window through the batched executor and
// updates the session's monitor. Only the first expectedWindows maps are
// retained (they cover the assignment budget and are the label-eligible
// set); windows past that are classified and dropped, so a session
// streaming indefinitely holds bounded memory.
//
// Incoming windows are sanitised first: NaN/Inf cells and dead sensor
// channels are imputed from the session's retained history, and a corrupt
// window with no history is rejected with ErrCorruptWindow. ctx bounds the
// inference (ErrTimeout past its deadline); when it carries no deadline
// the server's inferTimeout applies.
func (s *Session) PushWindowCtx(ctx context.Context, m *tensorT) (WindowResult, error) {
	start := time.Now()
	if m == nil || m.Rank() != 2 ||
		m.Dim(0) != s.srv.pipe.Cfg.Model.InH || m.Dim(1) != s.srv.pipe.Cfg.Model.InW {
		return WindowResult{}, fmt.Errorf("%w: window must be a %d×%d feature map",
			ErrBadRequest, s.srv.pipe.Cfg.Model.InH, s.srv.pipe.Cfg.Model.InW)
	}
	// Chaos path: corrupt the window server-side (JSON transport cannot
	// carry NaN, so scattered-NaN damage is injected here post-decode).
	if inj := s.srv.cfg.Fault; inj.Fire(fault.CorruptWindow) {
		m = corruptMap(m, inj.Intn(2), inj.Intn(3))
	}

	// Stage attribution: the HTTP layer plants a StageTimer in ctx (and
	// flushes it); direct in-process callers get a session-owned timer so
	// the stage histograms cover embedded use (bench/, clear-repro -only rt) too.
	st := obs.StageTimerOf(ctx)
	ownStages := false
	if st == nil {
		st = obs.NewStageTimer()
		ownStages = true
		ctx = obs.WithStageTimer(ctx, st)
	}

	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return WindowResult{}, fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
	}
	stopSan := st.Time(obs.StageSanitize)
	clean, err := s.sanitizeWindowLocked(m)
	stopSan()
	if err != nil {
		s.mu.Unlock()
		s.record(ctx, evRejected, "window=%d err=%v", s.pushed, err)
		return WindowResult{}, err
	}
	imputed := clean != m
	m = clean
	s.pushed++
	retained := false
	if len(s.maps) < s.expected {
		s.maps = append(s.maps, m)
		retained = true
	}
	if imputed {
		s.record(ctx, evImputed, "window=%d", s.pushed)
	}
	res := WindowResult{SessionID: s.id, Windows: s.pushed, Imputed: imputed}

	if s.state == StateEnrolling {
		if s.pushed >= s.assignAt {
			// The unlabeled budget is met: cold-start assignment, on
			// exactly the maps the batch eval path would consume.
			s.asg = s.srv.pipe.AssignMapsCtx(ctx, s.maps[:s.assignAt], s.frac)
			s.haveAsg = true
			s.mon = edge.NewMonitor(s.srv.deps[s.asg.Cluster], nil, s.srv.pipe.Cfg.Extractor)
			s.state = StateAssigned
			s.record(ctx, evAssigned, "cluster=%d margin=%.4f runner_up=%d windows=%d",
				s.asg.Cluster, s.asg.Margin(), s.asg.RunnerUp(), s.pushed)
			s.tryFineTuneLocked(ctx)
		}
		res.State = s.state
		cl := "none"
		if s.haveAsg {
			a := s.asg
			res.Assignment = &a
			cl = clusterLabel(a.Cluster)
		}
		s.mu.Unlock()
		st.SetCluster(cl)
		// Enrolling pushes always retain their map (the label-eligible
		// set): write through before acknowledging, so a crash or handoff
		// never loses a window the client was told we accepted.
		s.srv.persistSession(ctx, s)
		mWindows.Inc()
		mWindowsVec.With(cl, "false").Inc()
		hWindowUS.Observe(float64(time.Since(start).Microseconds()))
		if ownStages {
			st.FlushTo(hStageUS)
		}
		return res, nil
	}

	// A degraded session opportunistically re-asks for personalisation:
	// once its cluster's breaker has left the open state the suppressed
	// labels are still merged, so the trigger re-fires here.
	if s.degraded && !s.ftInFlight && len(s.labels) > 0 {
		_, _ = s.tryFineTuneLocked(ctx)
	}

	// Classified path: pick the serving model (LRU touch), release the
	// lock for normalisation + inference, re-acquire for the monitor.
	model, personalized := s.servingModelLocked()
	degraded := s.degraded && !personalized
	mon := s.mon
	a := s.asg
	s.mu.Unlock()
	if degraded {
		mDegradedInfer.Inc()
	}

	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, inferTimeout)
		defer cancel()
	}
	x := s.srv.pipe.Apply(m)
	var dsum []float64
	if !s.srv.cfg.DriftDisabled {
		// Per-window summary vector for the drift detector's evidence
		// ring, computed outside the lock like the normalisation above.
		dsum = features.Summary([]*tensorT{m})
	}
	ir, err := s.srv.exec.Submit(ctx, model, x)
	if err != nil {
		return WindowResult{}, err
	}
	// The executor measured the request's waits and its round's pass cost
	// on its own goroutines; recording them here (the request goroutine)
	// keeps the StageTimer single-writer.
	st.Add(obs.StageQueueWait, ir.QueueWait-ir.BatchWait)
	st.Add(obs.StageBatchWait, ir.BatchWait)
	st.Add(obs.StageForward, ir.Forward-ir.Quant)
	st.Add(obs.StageQuant, ir.Quant)
	raw := 0.0
	if len(ir.Probs) > 1 {
		raw = ir.Probs[1]
	}

	s.mu.Lock()
	ev := mon.Observe(raw)
	s.lastEvent = &ev
	if s.driftObserveLocked(ctx, dsum, ir.Probs) {
		res.Reassigned = true
		a = s.asg
	}
	res.State = s.state
	s.mu.Unlock()

	res.Assignment = &a
	res.Event = &ev
	res.Probs = ir.Probs
	res.Personalized = personalized
	res.Degraded = degraded
	res.BatchSize = ir.Batch
	res.QueueWait = ir.QueueWait
	st.SetCluster(clusterLabel(a.Cluster))
	if retained || res.Reassigned {
		// Durable state changed: a new retained map, or a self-heal swap.
		// Steady-state monitoring pushes past the retained range change
		// nothing durable and skip the store round-trip.
		s.srv.persistSession(ctx, s)
	}
	mWindows.Inc()
	mWindowsVec.With(clusterLabel(a.Cluster), strconv.FormatBool(degraded)).Inc()
	hWindowUS.Observe(float64(time.Since(start).Microseconds()))
	if ownStages {
		st.FlushTo(hStageUS)
	}
	return res, nil
}

// servingModelLocked resolves the model this session's inferences run on:
// the cached fine-tuned checkpoint when present, else the shared
// deployment of the assigned cluster. Callers hold s.mu.
func (s *Session) servingModelLocked() (*nn.Model, bool) {
	if m, ok := s.srv.cache.Lookup(s.id); ok {
		return m, true
	}
	return s.srv.deps[s.asg.Cluster].Model, false
}

// LabelsResult is the outcome of one PushLabelsCtx call.
type LabelsResult struct {
	SessionID string
	State     State
	Labeled   int
	// FineTuneQueued reports whether this call started a personalisation
	// job (false when one is already in flight or the session is still
	// enrolling).
	FineTuneQueued bool
}

// PushLabelsCtx attaches ground-truth labels to previously streamed
// windows (by arrival index) and, once the session is assigned, triggers
// an asynchronous fine-tune incorporating every label received so far.
// Labels arriving while a fine-tune is in flight are folded into the next
// trigger rather than restarting the running job. Flight events raised by
// the trigger (queued/suppressed) carry ctx's trace id.
func (s *Session) PushLabelsCtx(ctx context.Context, labels map[int]int) (LabelsResult, error) {
	res, err := func() (LabelsResult, error) {
		classes := s.srv.pipe.Cfg.Model.Classes
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.state == StateClosed {
			return LabelsResult{}, fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
		}
		for idx, y := range labels {
			if idx < 0 || idx >= s.pushed {
				return LabelsResult{}, fmt.Errorf("%w: label for unknown window %d (have %d)",
					ErrBadRequest, idx, s.pushed)
			}
			if idx >= len(s.maps) {
				return LabelsResult{}, fmt.Errorf("%w: window %d is past the retained range [0,%d)",
					ErrBadRequest, idx, len(s.maps))
			}
			if y < 0 || y >= classes {
				return LabelsResult{}, fmt.Errorf("%w: label %d out of range [0,%d)", ErrBadRequest, y, classes)
			}
		}
		for idx, y := range labels {
			s.labels[idx] = y
		}
		queued, err := s.tryFineTuneLocked(ctx)
		if err != nil {
			return LabelsResult{}, err
		}
		return LabelsResult{SessionID: s.id, State: s.state, Labeled: len(s.labels), FineTuneQueued: queued}, nil
	}()
	if err != nil {
		return res, err
	}
	// Labels are the one input the client cannot re-derive: write them
	// through before acknowledging — the zero-lost-labels guarantee the
	// rolling-restart smoke gates on.
	s.srv.persistSession(ctx, s)
	return res, nil
}

// tryFineTuneLocked starts a personalisation job when the session is
// assigned, has labels that a previous job hasn't seen, and no job is in
// flight. While the cluster's circuit breaker is open the trigger is
// suppressed and the session is marked degraded (served from the cluster
// baseline); the merged labels survive, so a later trigger —
// opportunistic on window pushes or from the next PushLabelsCtx — re-fires
// once the breaker admits probes again. It single-flights through the
// model cache, so concurrent triggers collapse onto one build. Callers
// hold s.mu.
func (s *Session) tryFineTuneLocked(ctx context.Context) (bool, error) {
	if !s.haveAsg || s.ftInFlight || len(s.labels) == 0 || len(s.labels) == s.ftLabeled {
		return false, nil
	}
	if br := s.srv.BreakerFor(s.asg.Cluster); br != nil && br.State() == BreakerOpen {
		s.degraded = true
		mFTSuppressed.Inc()
		mFTByVec.With(clusterLabel(s.asg.Cluster), "suppressed").Inc()
		s.record(ctx, evFTSuppressed, "cluster=%d breaker=open labels=%d", s.asg.Cluster, len(s.labels))
		s.scheduleHealLocked()
		return false, nil
	}
	// A fresh job must supersede any cached older checkpoint.
	if old := s.srv.cache.Remove(s.id); old != nil {
		s.srv.exec.Forget(old)
	}
	e, created := s.srv.cache.beginLoad(s.id)
	if !created {
		// Another goroutine is already building for this session.
		return false, nil
	}
	if err := s.srv.enqueueFineTune(ftJob{s: s, e: e, k: s.asg.Cluster}); err != nil {
		s.srv.cache.abort(e)
		return false, err
	}
	s.ftInFlight = true
	s.ftLabeled = len(s.labels)
	s.record(ctx, evFTQueued, "cluster=%d labels=%d", s.asg.Cluster, len(s.labels))
	if s.state != StateReassigning {
		// A re-assignment replay keeps its own state so status readers can
		// tell a self-heal swap from ordinary personalisation.
		s.state = StateFineTuning
	}
	return true, nil
}

// runFineTune executes one personalisation job on a pool worker: snapshot
// the labelled windows, fine-tune the assigned cluster's checkpoint, and
// deploy it at the session's device precision. A job that reaches a
// closed session (queued before the close dropped its windows) ends with
// ErrSessionClosed: there is nothing left to train on or to serve.
func (s *Session) runFineTune(ctx context.Context) (*nn.Model, error) {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
	}
	k := s.asg.Cluster
	idxs := make([]int, 0, len(s.labels))
	for idx := range s.labels {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	samples := make([]nn.Sample, 0, len(idxs))
	raw := make([]*tensorT, len(idxs))
	ys := make([]int, len(idxs))
	for i, idx := range idxs {
		raw[i] = s.maps[idx]
		ys[i] = s.labels[idx]
	}
	s.mu.Unlock()

	// Chaos path: a model-build failure, before any training work.
	if s.srv.cfg.Fault.Fire(fault.ModelBuild) {
		mFineTuneErr.Inc()
		return nil, fmt.Errorf("fine-tune cluster %d: %w", k, fault.ErrInjected)
	}

	// Normalisation and training run unlocked; the pipeline is read-only
	// and FineTune clones the checkpoint before touching it.
	for i := range raw {
		samples = append(samples, nn.Sample{X: s.srv.pipe.Apply(raw[i]), Y: ys[i]})
	}
	start := time.Now()
	m, err := s.srv.pipe.FineTuneCtx(ctx, k, samples)
	if err != nil {
		mFineTuneErr.Inc()
		return nil, err
	}
	hFineTuneMS.Observe(float64(time.Since(start).Milliseconds()))
	sp := obs.StartSpanCtx(ctx, "edge.deploy")
	dep := edge.Deploy(m, s.srv.cfg.Device)
	sp.End()
	return dep.Model, nil
}

// fineTuneDone records a job's outcome on the session and, if labels
// arrived after the finished job snapshotted its training set, immediately
// starts the next job over them — the "folded into the next trigger"
// promise PushLabelsCtx makes. A trigger shed here (pool full) is dropped;
// the labels stay merged and the next PushLabelsCtx retries.
//
// A failed job (retries exhausted or breaker refusal) marks the session
// degraded and forgets the job's label watermark, so the same labels count
// as unseen for the next trigger. That trigger is deliberately NOT
// immediate: retrying inline would spin against a still-failing builder —
// or against a half-open breaker whose single probe slot another session
// holds — as fast as the workers can drain. Instead recovery is
// push-driven (the opportunistic retry in PushWindowCtx, or the next
// PushLabelsCtx) with a one-shot timer after the breaker cooldown as the
// quiet-session fallback, so a session with no further traffic still
// heals once the fault clears.
func (s *Session) fineTuneDone(ctx context.Context, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ftInFlight = false
	if s.state == StateClosed {
		return
	}
	if err != nil {
		s.degraded = true
		s.ftLabeled = 0
		if !s.personalized {
			s.state = StateAssigned
		} else {
			s.state = StateMonitoring
		}
		mFTByVec.With(clusterLabel(s.asg.Cluster), "failed").Inc()
		s.record(ctx, evFTFailed, "cluster=%d err=%v degraded=true", s.asg.Cluster, err)
		s.scheduleHealLocked()
		return
	}
	s.personalized = true
	s.degraded = false
	s.state = StateMonitoring
	mFTByVec.With(clusterLabel(s.asg.Cluster), "ok").Inc()
	s.record(ctx, evFTOK, "cluster=%d", s.asg.Cluster)
	_, _ = s.tryFineTuneLocked(ctx)
}

// scheduleHealLocked arms the session's one self-heal timer: a retry of
// tryFineTuneLocked after the breaker cooldown, by which time an open
// breaker admits probes again. The healArmed guard caps the session at a
// single pending timer no matter how many failures or suppressions pile
// up, and the timer re-arms through the suppression path until the
// fine-tune lands or the session closes. Callers hold s.mu.
func (s *Session) scheduleHealLocked() {
	if s.healArmed {
		return
	}
	s.healArmed = true
	time.AfterFunc(s.srv.cfg.BreakerCooldown, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.healArmed = false
		if s.state == StateClosed {
			return
		}
		_, _ = s.tryFineTuneLocked(context.Background())
	})
}

// close marks the session closed and recycles its monitor.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateClosed
	if s.mon != nil {
		s.mon.Reset()
	}
	s.maps = nil
	s.labels = nil
}

// SessionStatus is the GET /v1/sessions/{id} snapshot.
type SessionStatus struct {
	ID       string  `json:"id"`
	UserID   int     `json:"user_id"`
	State    string  `json:"state"`
	Windows  int     `json:"windows"`
	Expected int     `json:"expected_windows"`
	AssignAt int     `json:"assign_at"`
	Labeled  int     `json:"labeled"`
	AgeSec   float64 `json:"age_sec"`

	// Cluster is -1 until assignment.
	Cluster int       `json:"cluster"`
	Scores  []float64 `json:"scores,omitempty"`
	Margin  float64   `json:"margin"`
	// RunnerUp is the second-closest cluster at assignment time (-1
	// before assignment); with Margin it quantifies how contested the
	// assignment is.
	RunnerUp int `json:"runner_up"`
	// Reassigns counts self-healing assignment swaps; PrevCluster is the
	// cluster the latest swap left (-1 when none). Drift is the rolling
	// evidence snapshot (absent until the detector observes a window).
	Reassigns   int          `json:"reassigns"`
	PrevCluster int          `json:"prev_cluster"`
	Drift       *DriftStatus `json:"drift,omitempty"`

	Personalized     bool `json:"personalized"`
	FineTuneInFlight bool `json:"finetune_in_flight"`
	// Degraded reports the session is served from the shared cluster
	// baseline because personalisation failed or its cluster's breaker is
	// open.
	Degraded bool `json:"degraded"`
	// Restored reports the session was recovered from a registry snapshot
	// after a restart.
	Restored bool `json:"restored"`
	// Durability is "ok" when the session's durable record is current,
	// "at_risk" while a failed persist awaits write-behind replay or the
	// store-health breaker is not closed (store mode only; empty without
	// a store).
	Durability string `json:"durability,omitempty"`

	Monitor   *edge.MonitorStats `json:"monitor,omitempty"`
	LastEvent *edge.Event        `json:"last_event,omitempty"`

	// Events is the session's flight recorder: a bounded, ordered ring of
	// lifecycle events (assignment, fine-tune attempts, breaker
	// transitions, sanitisation hits, drift verdicts, re-assignments,
	// snapshot restores), each correlated with the request or job trace
	// that caused it.
	Events []FlightEvent `json:"events,omitempty"`
}

// Status snapshots the session.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:               s.id,
		UserID:           s.userID,
		State:            s.state.String(),
		Windows:          s.pushed,
		Expected:         s.expected,
		AssignAt:         s.assignAt,
		Labeled:          len(s.labels),
		AgeSec:           time.Since(s.created).Seconds(),
		Cluster:          -1,
		RunnerUp:         -1,
		Reassigns:        s.reassigns,
		PrevCluster:      s.prevCluster,
		Drift:            s.driftStatusLocked(),
		Personalized:     s.personalized,
		FineTuneInFlight: s.ftInFlight,
		Degraded:         s.degraded,
		Restored:         s.restored,
		LastEvent:        s.lastEvent,
	}
	if s.srv.wb != nil {
		st.Durability = s.srv.wb.durability(s.id)
	}
	if s.haveAsg {
		st.Cluster = s.asg.Cluster
		st.Scores = append([]float64(nil), s.asg.Scores...)
		st.Margin = s.asg.Margin()
		st.RunnerUp = s.asg.RunnerUp()
	}
	if s.mon != nil {
		ms := s.mon.Stats()
		st.Monitor = &ms
	}
	st.Events = s.flight.events()
	return st
}
