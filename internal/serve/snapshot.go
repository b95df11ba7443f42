package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Session persistence. There is one record format: one record per session
// (sessSnap under the repo's core.WriteHeader framing, magic "SESS",
// followed by the retained feature maps), written through a store.Store
// backend by persistSession and read back by hydrateSession. Sessions are
// written through on every lifecycle mutation (create, retained window,
// labels, assignment, fine-tune outcome, drift swap), so a replica crash —
// or a consistent-hash handoff to another replica — loses nothing the
// client was told we accepted. The periodic and SIGTERM flushes (FlushAll)
// and the boot restore (RestoreAll) go through the same two functions.
//
// Records carry everything a restart cannot recompute: lifecycle state,
// the cold-start assignment, the label budget, and the retained raw maps
// the labels index into. Fine-tuned weights live separately as
// content-addressed checkpoint blobs (persistCheckpoint): each session's
// manifest references the cluster-baseline blob it started from — shared
// by every session fine-tuned off that baseline — plus its own fine blob.
// A hydrating replica that finds a checkpoint resumes personalised
// serving without replaying the fine-tune; one that doesn't demotes to
// degraded baseline serving and replays labels, the PR 3/4 machinery.

// sessionMagic frames one per-session store record ("SESS").
const sessionMagic uint32 = 0x53455353

// Persistence telemetry.
var (
	mSnapshots    = obs.GetCounter("serve.snapshots")
	mSnapshotErrs = obs.GetCounter("serve.snapshot_errors")
	mRestored     = obs.GetCounter("serve.sessions_restored")
	mHydrated     = obs.GetCounter("serve.sessions_hydrated")
	mPersists     = obs.GetCounter("serve.session_persists")
	mPersistErrs  = obs.GetCounter("serve.session_persist_errors")
	mCkptPersists = obs.GetCounter("serve.checkpoint_persists")
	mCkptHits     = obs.GetCounter("serve.checkpoint_hydrations")
	// mPersistFenced counts persists the store rejected under a newer
	// fence (a stale ex-owner's write losing, as designed); mRehydrated
	// counts sessions re-hydrated from the store on (re)gaining ownership.
	mPersistFenced = obs.GetCounter("serve.session_persists_fenced")
	mRehydrated    = obs.GetCounter("serve.sessions_rehydrated")
)

// sessSnap is one session's JSON record inside a store record's header.
type sessSnap struct {
	ID       string      `json:"id"`
	UserID   int         `json:"user_id"`
	State    int         `json:"state"`
	Expected int         `json:"expected"`
	AssignAt int         `json:"assign_at"`
	Frac     float64     `json:"frac"`
	Pushed   int         `json:"pushed"`
	Labels   map[int]int `json:"labels,omitempty"`
	HaveAsg  bool        `json:"have_asg"`
	Cluster  int         `json:"cluster"`
	Scores   []float64   `json:"scores,omitempty"`
	FracUsed float64     `json:"frac_used"`
	Degraded bool        `json:"degraded"`
	NMaps    int         `json:"n_maps"`
	Created  int64       `json:"created_unix"`
	// Self-healing assignment record: how many times the session
	// re-assigned, the cluster the latest swap left (meaningful only when
	// Reassigns > 0 — absent in pre-drift snapshots, both decode as 0),
	// and the remaining flap-suppression cooldown in windows. Persisting
	// these means restore-on-boot resumes the *healed* assignment with
	// its cooldown intact instead of resurrecting a known-bad one or
	// re-arming the detector for an immediate flap.
	Reassigns     int `json:"reassigns,omitempty"`
	PrevCluster   int `json:"prev_cluster,omitempty"`
	DriftCooldown int `json:"drift_cooldown,omitempty"`
	// Events is the session's flight-recorder ring at snapshot time, so a
	// post-crash timeline spans the restart (absent in older snapshots).
	Events []FlightEvent `json:"events,omitempty"`
}

// sessRecHeader is the per-session store record's JSON block. Seq is the
// server's session-ID counter at persist time, so a restoring replica
// resumes minting above every persisted ID. FenceSeq is the session's
// persist-fence sequence at write time: a hydrating owner seeds its own
// counter from it, continuing the monotonic fence across handoffs
// (absent in pre-fencing records, decoding as 0). Epoch is the fence
// epoch the record was written at, so a ringless replica that hydrates
// it never fences below the store's record (absent in records written
// before it was added, decoding as 0).
type sessRecHeader struct {
	Seq      int64    `json:"seq"`
	FenceSeq uint64   `json:"fence_seq,omitempty"`
	Epoch    uint64   `json:"epoch,omitempty"`
	Rec      sessSnap `json:"rec"`
}

// snapRecordLocked copies one session into its snapshot record plus its
// retained map references (the maps are append-only, so sharing the
// tensors is safe). Callers hold sess.mu. Closed sessions return ok=false.
func snapRecordLocked(sess *Session) (rec sessSnap, maps []*tensorT, ok bool) {
	if sess.state == StateClosed {
		return sessSnap{}, nil, false
	}
	rec = sessSnap{
		ID:       sess.id,
		UserID:   sess.userID,
		State:    int(sess.state),
		Expected: sess.expected,
		AssignAt: sess.assignAt,
		Frac:     sess.frac,
		Pushed:   sess.pushed,
		HaveAsg:  sess.haveAsg,
		Cluster:  -1,
		Degraded: sess.degraded,
		NMaps:    len(sess.maps),
		Created:  sess.created.Unix(),
	}
	if len(sess.labels) > 0 {
		rec.Labels = make(map[int]int, len(sess.labels))
		for k, v := range sess.labels {
			rec.Labels[k] = v
		}
	}
	if sess.haveAsg {
		rec.Cluster = sess.asg.Cluster
		rec.Scores = append([]float64(nil), sess.asg.Scores...)
		rec.FracUsed = sess.asg.FracUsed
	}
	rec.Reassigns = sess.reassigns
	if sess.reassigns > 0 {
		rec.PrevCluster = sess.prevCluster
	}
	if sess.drift != nil {
		rec.DriftCooldown = sess.drift.cooldown
	}
	maps = append(maps, sess.maps...)
	return rec, maps, true
}

// materializeSession rebuilds a Session from its record and retained
// maps. When ckpt is non-nil it is the session's reloaded fine-tuned
// model (already at device precision) covering ckLabels labels: the
// session resumes personalised monitoring with the checkpoint primed in
// the model cache, and only labels beyond ckLabels trigger a replay.
// Without a checkpoint, anything past assignment demotes to StateAssigned
// on the shared cluster baseline (degraded-handoff serving) and merged
// labels replay a fine-tune.
func (s *Server) materializeSession(rec sessSnap, maps []*tensorT, ckpt *nn.Model, ckLabels int) (*Session, error) {
	if rec.Expected < 1 || len(maps) != rec.NMaps || rec.NMaps > rec.Expected {
		return nil, fmt.Errorf("%w: session %q has inconsistent window counts", ErrBadSnapshot, rec.ID)
	}
	if rec.HaveAsg && (rec.Cluster < 0 || rec.Cluster >= len(s.deps)) {
		return nil, fmt.Errorf("%w: session %q assigned to unknown cluster %d", ErrBadSnapshot, rec.ID, rec.Cluster)
	}
	sess := newSession(s, rec.ID, rec.UserID, rec.Expected, rec.Frac)
	sess.assignAt = rec.AssignAt
	sess.pushed = rec.Pushed
	sess.degraded = rec.Degraded
	sess.restored = true
	sess.created = time.Unix(rec.Created, 0)
	// Reload the flight recorder so the session's timeline spans the
	// restart, dump the recovered history to the structured log (this is
	// the crash post-mortem), then record the restore itself.
	sess.flight.seed(rec.Events)
	lg := obs.Logger().With("session", rec.ID)
	for _, ev := range rec.Events {
		lg.Info("flight replay", "seq", ev.Seq, "t_ms", ev.TMS,
			"kind", ev.Kind, "detail", ev.Detail, "trace", ev.Trace)
	}
	for k, v := range rec.Labels {
		sess.labels[k] = v
	}
	sess.maps = maps
	if !rec.HaveAsg {
		if State(rec.State) != StateEnrolling {
			return nil, fmt.Errorf("%w: session %q state %d without assignment", ErrBadSnapshot, rec.ID, rec.State)
		}
		sess.state = StateEnrolling
		sess.record(context.Background(), evRestored, "state=%s maps=%d", StateEnrolling, rec.NMaps)
		return sess, nil
	}

	sess.asg = core.Assignment{Cluster: rec.Cluster, Scores: rec.Scores, FracUsed: rec.FracUsed}
	sess.haveAsg = true
	sess.mon = edge.NewMonitor(s.deps[rec.Cluster], nil, s.pipe.Cfg.Extractor)
	// Resume the healed assignment, not the pre-swap one: the snapshot's
	// Cluster already reflects any re-assignment, and the restored
	// cooldown keeps the detector from flapping straight back. The
	// evidence ring itself is recent-signal state and rebuilds from live
	// traffic.
	sess.reassigns = rec.Reassigns
	if rec.Reassigns > 0 {
		sess.prevCluster = rec.PrevCluster
	}
	if rec.DriftCooldown > 0 && !s.cfg.DriftDisabled {
		sess.ensureDriftLocked().cooldown = rec.DriftCooldown
	}
	switch State(rec.State) {
	case StateEnrolling, StateClosed:
		return nil, fmt.Errorf("%w: session %q state %d inconsistent with assignment", ErrBadSnapshot, rec.ID, rec.State)
	}
	if ckpt != nil {
		// The persisted fine-tuned checkpoint covers the session's labels
		// up to ckLabels: prime the model cache and resume personalised
		// monitoring directly — no replay, no degraded handoff window.
		s.cache.put(rec.ID, ckpt)
		sess.personalized = true
		sess.degraded = false
		sess.ftLabeled = ckLabels
		sess.state = StateMonitoring
		mCkptHits.Inc()
		sess.record(context.Background(), evRestored,
			"state=%s cluster=%d labels=%d maps=%d checkpoint=reloaded",
			StateMonitoring, rec.Cluster, len(rec.Labels), rec.NMaps)
	} else {
		// Demote to the cluster baseline (degraded-handoff serving): any
		// merged labels replay the fine-tune below. A session caught
		// mid-drift or mid-re-assignment lands here too — never
		// half-swapped: its cluster is the post-swap one, its labels
		// replay, and the evidence streak restarts.
		sess.state = StateAssigned
		sess.record(context.Background(), evRestored, "state=%s cluster=%d labels=%d maps=%d",
			State(rec.State), rec.Cluster, len(rec.Labels), rec.NMaps)
	}
	sess.mu.Lock()
	_, _ = sess.tryFineTuneLocked(context.Background())
	sess.mu.Unlock()
	return sess, nil
}

// encodeSessionRec serialises one per-session store record.
func encodeSessionRec(seq int64, fence store.Fence, rec sessSnap, maps []*tensorT) ([]byte, error) {
	var buf bytes.Buffer
	hdr := sessRecHeader{Seq: seq, FenceSeq: fence.Seq, Epoch: fence.Epoch, Rec: rec}
	if err := core.WriteHeader(&buf, sessionMagic, hdr); err != nil {
		return nil, err
	}
	for _, m := range maps {
		if _, err := m.WriteTo(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeSessionRec parses a record written by encodeSessionRec.
func decodeSessionRec(data []byte) (sessRecHeader, []*tensorT, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var hdr sessRecHeader
	if err := core.ReadHeader(br, sessionMagic, &hdr); err != nil {
		return sessRecHeader{}, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if hdr.Rec.NMaps < 0 {
		return sessRecHeader{}, nil, fmt.Errorf("%w: negative map count", ErrBadSnapshot)
	}
	maps := make([]*tensorT, 0, hdr.Rec.NMaps)
	for i := 0; i < hdr.Rec.NMaps; i++ {
		var t tensor.Tensor
		if _, err := t.ReadFrom(br); err != nil {
			return sessRecHeader{}, nil, fmt.Errorf("%w: map %d: %v", ErrBadSnapshot, i, err)
		}
		maps = append(maps, &t)
	}
	return hdr, maps, nil
}

// persistSession writes one session through the store (write-through
// persistence point). No-op without a store. The returned error is
// informational — a failed persist must not fail the request that
// triggered it: the session enters the write-behind replay queue
// (writebehind.go), keeps serving with durability at-risk, and the
// drain / periodic FlushAll retries. Callers that *require* a fresh
// durable record before acting (Router.handOff) check the error.
//
// A fenced rejection (store.ErrFenced) is NOT a store failure: the store
// answered, and it holds strictly newer state written by the session's
// current owner — this replica's copy is stale. The breaker sees success,
// nothing is queued for replay (a replay would be fenced again), and the
// error is returned so ownership-churn callers can treat "already
// superseded" as safe to evict.
func (s *Server) persistSession(ctx context.Context, sess *Session) error {
	if s.cfg.Store == nil {
		return nil
	}
	stop := obs.StageTimerOf(ctx).Time(obs.StageStore)
	defer stop()
	if !s.wb.allow() {
		// Store breaker open: skip the doomed round-trip (no latency tax
		// on the request path) and queue for replay.
		s.wb.defer_(ctx, sess)
		return errPersistDeferred
	}
	err := s.persistSessionDirect(ctx, sess)
	wbErr := err
	if errors.Is(err, store.ErrFenced) {
		wbErr = nil
	}
	s.wb.outcome(ctx, sess, wbErr)
	return err
}

// persistSessionDirect does one encode + put round-trip, with failure
// accounting but no breaker/queue interaction — the primitive shared by
// the write-through path and the replay drain. Every put is fenced at
// {epoch, per-session persist seq}: the store rejects the write with
// store.ErrFenced when its record carries a strictly newer fence. The
// epoch is the ring's; without a ring it is the epoch of the record the
// session was hydrated from (0 for a session created here), so a
// single-node boot over a store a ring wrote keeps persisting. The seq
// is drawn under sess.mu together with the snapshot, so of two
// overlapping persists of one session the newer snapshot always carries
// the newer fence and a late-landing older put cannot roll the record
// back; across replicas the epoch keeps a lagging ex-owner from
// clobbering the new owner's state. (Lock order sess.mu →
// shard.Membership.mu is safe: the membership lock is a leaf.)
func (s *Server) persistSessionDirect(ctx context.Context, sess *Session) error {
	s.mu.RLock()
	seq := s.seq
	s.mu.RUnlock()
	rt := s.ring.Load()
	sess.mu.Lock()
	rec, maps, ok := snapRecordLocked(sess)
	var fence store.Fence
	if ok {
		fence.Epoch = sess.fenceEpoch
		if rt != nil {
			fence.Epoch = rt.memb.Epoch()
		}
		fence.Seq = atomic.AddUint64(&sess.fenceSeq, 1)
	}
	sess.mu.Unlock()
	if !ok {
		return nil // closed: its terminal delete path owns durability
	}
	rec.Events = sess.flight.events()
	data, err := encodeSessionRec(seq, fence, rec, maps)
	if err == nil {
		err = s.cfg.Store.PutSessionFenced(ctx, rec.ID, fence, data)
	}
	if errors.Is(err, store.ErrFenced) {
		// The session's current owner already wrote newer state under a
		// newer fence; our copy is stale by construction. Surface it on the
		// flight recorder (it is the fencing working, not a store fault).
		mPersistFenced.Inc()
		sess.record(ctx, evPersistFenced, "epoch=%d seq=%d", fence.Epoch, fence.Seq)
		return err
	}
	if err != nil {
		mPersistErrs.Inc()
		s.notePersistFailure(ctx, sess, "put_session", err)
		return err
	}
	mPersists.Inc()
	return nil
}

// notePersistFailure is the satellite fix for silent persist swallowing:
// every failed write-through lands in store_persist_failures{backend,op},
// the session's flight recorder, and the structured log.
func (s *Server) notePersistFailure(ctx context.Context, sess *Session, op string, err error) {
	mPersistFailVec.With(s.cfg.Store.Backend(), op).Inc()
	sess.record(ctx, evPersistFail, "op=%s err=%v", op, err)
	obs.Log(ctx).Warn("store persist failed", "op", op, "err", err)
}

// FlushAll persists every live session through the store: the Shutdown /
// SIGTERM path (a departing replica flushes its hot sessions so the next
// owner can hydrate them) and the periodic persistLoop catch-all. Returns
// how many sessions were written.
func (s *Server) FlushAll(ctx context.Context) int {
	if s.cfg.Store == nil {
		return 0
	}
	s.mu.RLock()
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.RUnlock()
	n := 0
	for _, sess := range live {
		s.persistSession(ctx, sess)
		n++
	}
	mSnapshots.Inc()
	return n
}

// RestoreAll hydrates every stored session this replica should own
// (owned nil means all — the single-replica boot path). Sessions that
// fail to decode are skipped with an error count rather than aborting
// boot: one corrupt record must not take out the replica.
func (s *Server) RestoreAll(ctx context.Context, owned func(id string) bool) (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	ids, err := s.cfg.Store.ListSessions(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if owned != nil && !owned(id) {
			continue
		}
		if _, err := s.hydrateSession(ctx, id); err != nil {
			mSnapshotErrs.Inc()
			obs.Log(ctx).Warn("session restore failed", "session", id, "err", err)
			continue
		}
		mRestored.Inc()
		n++
	}
	return n, nil
}

// hydrateSession loads one session from the store into the live registry:
// decode the record, reload its fine-tuned checkpoint when one is
// persisted, materialise, and insert — racing hydrations collapse onto
// whichever inserted first. This is both the boot restore path and the
// on-demand migration path (SessionCtx miss on the new owner after a
// topology change).
func (s *Server) hydrateSession(ctx context.Context, id string) (*Session, error) {
	data, err := s.cfg.Store.GetSession(ctx, id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
		}
		return nil, err
	}
	hdr, maps, err := decodeSessionRec(data)
	if err != nil {
		return nil, err
	}
	if hdr.Rec.ID != id {
		return nil, fmt.Errorf("%w: record for %q stored under %q", ErrBadSnapshot, hdr.Rec.ID, id)
	}
	ckpt, ckLabels := s.loadCheckpoint(ctx, id, hdr.Rec.Cluster)
	sess, err := s.materializeSession(hdr.Rec, maps, ckpt, ckLabels)
	if err != nil {
		return nil, err
	}
	// Continue the persist fence where the stored record left off, so this
	// owner's first persist is already strictly newer than the record it
	// hydrated from.
	atomic.StoreUint64(&sess.fenceSeq, hdr.FenceSeq)
	sess.fenceEpoch = hdr.Epoch
	s.mu.Lock()
	if cur, ok := s.sessions[id]; ok {
		// Lost the hydration race; serve the winner's copy. (Any cache
		// priming we did wrote the same checkpoint content — harmless.)
		s.mu.Unlock()
		return cur, nil
	}
	s.sessions[id] = sess
	if hdr.Seq > s.seq {
		s.seq = hdr.Seq
	}
	gSessions.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	mHydrated.Inc()
	return sess, nil
}

// rehydrateSession forces a session to be served from durable state: any
// live in-memory copy is discarded and the session is hydrated fresh from
// the store. This is the stale-copy fix — a replica (re)gaining ownership
// after a hand-back, drain handoff, or partition heal must not serve the
// copy it held before losing ownership, because the interim owner served
// (and persisted) newer state. The departing owner persists first, then
// notifies the new owner through this path, then evicts; so the hydrate
// here always sees state at least as fresh as anything acknowledged.
func (s *Server) rehydrateSession(ctx context.Context, id string) (*Session, error) {
	if s.cfg.Store == nil {
		return nil, fmt.Errorf("%w: no store to rehydrate %q from", ErrSessionNotFound, id)
	}
	staleWindows := -1
	if old := s.detach(id); old != nil {
		old.mu.Lock()
		staleWindows = old.pushed
		old.mu.Unlock()
		// A queued replay of the discarded copy must not run: its bytes
		// are stale and a fenced store would reject them anyway.
		s.wb.remove(id)
	}
	sess, err := s.hydrateSession(ctx, id)
	if err != nil {
		return nil, err
	}
	mRehydrated.Inc()
	sess.mu.Lock()
	windows := sess.pushed
	sess.mu.Unlock()
	sess.record(ctx, evRehydrated, "windows=%d stale_windows=%d", windows, staleWindows)
	return sess, nil
}

// loadCheckpoint reloads id's persisted fine-tuned model from the
// content-addressed blob layer. Any miss or mismatch returns (nil, 0) —
// the caller falls back to degraded baseline serving plus label replay,
// so checkpoint corruption can never block hydration.
func (s *Server) loadCheckpoint(ctx context.Context, id string, cluster int) (*nn.Model, int) {
	ck, err := s.cfg.Store.GetCheckpoint(ctx, id)
	if err != nil {
		return nil, 0
	}
	if ck.Cluster != cluster {
		// Checkpoint predates a drift re-assignment: stale, replay instead.
		return nil, 0
	}
	blob, err := s.cfg.Store.GetBlob(ctx, ck.Fine)
	if err != nil {
		obs.Log(ctx).Warn("checkpoint blob unreadable", "session", id, "digest", string(ck.Fine), "err", err)
		return nil, 0
	}
	m, err := nn.Load(bytes.NewReader(blob))
	if err != nil {
		obs.Log(ctx).Warn("checkpoint blob undecodable", "session", id, "err", err)
		return nil, 0
	}
	return m, ck.Labels
}

// persistCheckpoint stores a session's freshly fine-tuned model as a
// content-addressed manifest: the cluster-baseline blob (deduplicated
// across every session fine-tuned from cluster k) plus the fine-tuned
// weights blob. Runs on the fine-tune worker after a successful build.
func (s *Server) persistCheckpoint(ctx context.Context, sess *Session, k int, model *nn.Model, labels int) {
	if s.cfg.Store == nil || model == nil {
		return
	}
	var baseBuf, fineBuf bytes.Buffer
	if err := s.pipe.ModelFor(k).Save(&baseBuf); err != nil {
		mPersistErrs.Inc()
		return
	}
	if err := model.Save(&fineBuf); err != nil {
		mPersistErrs.Inc()
		return
	}
	base, _, err := s.cfg.Store.PutBlob(ctx, baseBuf.Bytes())
	if err != nil {
		mPersistErrs.Inc()
		s.notePersistFailure(ctx, sess, "put_blob", err)
		return
	}
	fine, _, err := s.cfg.Store.PutBlob(ctx, fineBuf.Bytes())
	if err != nil {
		mPersistErrs.Inc()
		s.notePersistFailure(ctx, sess, "put_blob", err)
		return
	}
	ck := store.Checkpoint{Key: sess.id, Cluster: k, Base: base, Fine: fine, Labels: labels}
	if err := s.cfg.Store.PutCheckpoint(ctx, ck); err != nil {
		mPersistErrs.Inc()
		s.notePersistFailure(ctx, sess, "put_checkpoint", err)
		return
	}
	mCkptPersists.Inc()
}

// persistLoop periodically flushes the registry through the store until
// Shutdown (which flushes once more itself). The write-through points
// make this a catch-all for anything they missed (e.g. a persist that
// failed transiently), not the primary durability mechanism.
func (s *Server) persistLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.FlushAll(context.Background())
		case <-s.stopc:
			return
		}
	}
}
