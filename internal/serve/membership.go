package serve

// Live ring membership: the router's topology-change surface. The ring
// stops being a boot-time constant here — replicas join, leave, and
// drain at runtime through a small admin API, and the cluster converges
// on the newest view without restarts:
//
//   - POST /v1/membership {action: join|leave|drain, node} (gated by
//     Config.MembershipAdmin, like the chaos endpoint) mutates the local
//     view — bumping its epoch — and broadcasts the new view to every
//     member. A replica that misses the broadcast converges anyway: the
//     health probe carries epoch + member-set hash, and any skew makes
//     the lagging side pull GET /v1/membership and Adopt the newer view.
//   - Forwards carry the sender's epoch (router.go); fenced persists
//     carry {epoch, seq} (snapshot.go). Together they make a topology
//     change safe against stragglers: a stale sender is refused with 421
//     and re-resolves, a stale ex-owner's write loses at the store.
//   - drain is the graceful exit: the replica sheds new-session creates
//     (503 + Retry-After), leaves the ring, then runs the janitor's
//     hand-off pass until no session is local or DrainTimeout (30 s)
//     expires. There is one hand-off, handOff: a write-through persist,
//     then the notify to the new owner to re-hydrate, then the evict.
//     drain_handed_off counts every eviction made while draining,
//     whichever loop made it. Progress is visible in
//     /v1/stats.membership; an incomplete drain is an explicit error
//     (drain_incomplete), never a silent drop.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
)

// Membership telemetry.
var (
	mMembChanges   = obs.GetCounter("serve.membership_changes")
	mViewsAdopted  = obs.GetCounter("serve.membership_views_adopted")
	mDrainHandoffs = obs.GetCounter("serve.drain_handoffs")
	mDrainFailures = obs.GetCounter("serve.drain_failures")
	gRingEpoch     = obs.GetGauge("serve.ring_epoch")
)

// MembershipStats is the versioned-ring block of /v1/stats (and the
// source of the /healthz epoch fields).
type MembershipStats struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Hash    string   `json:"hash"`
	// Draining reports a graceful drain in progress (or finished: the
	// flag stays up once set — a drained replica does not rejoin on its
	// own). The remaining fields are its progress counters.
	Draining        bool `json:"draining,omitempty"`
	DrainRemaining  int  `json:"drain_remaining,omitempty"`
	DrainHandedOff  int  `json:"drain_handed_off,omitempty"`
	DrainFailures   int  `json:"drain_failures,omitempty"`
	DrainIncomplete bool `json:"drain_incomplete,omitempty"`
}

// drainState tracks graceful-drain progress for stats. The remaining
// count is not kept here: membStats reads it live from the registry.
type drainState struct {
	mu         sync.Mutex
	active     bool
	handedOff  int
	failures   int
	incomplete bool
}

// Draining reports whether a graceful drain has started on this replica.
func (rt *Router) Draining() bool {
	rt.drain.mu.Lock()
	defer rt.drain.mu.Unlock()
	return rt.drain.active
}

// journalViewDiff records node_joined/node_left journal events for the
// member-set difference between prev and next. It runs on every replica
// that observes a topology change — the mutating node and every adopter
// alike — so a fleet-merged journal shows the same join/leave from each
// survivor's vantage point, stamped with the epoch that minted it.
func (rt *Router) journalViewDiff(ctx context.Context, prev, next shard.View) {
	j := rt.srv.journal
	for _, n := range next.Members {
		if !prev.Contains(n) {
			j.Record(ctx, "node_joined", "%s (epoch %d)", n, next.Epoch)
		}
	}
	for _, n := range prev.Members {
		if !next.Contains(n) {
			j.Record(ctx, "node_left", "%s (epoch %d)", n, next.Epoch)
		}
	}
}

// membStats snapshots the membership surface for Server.Stats / healthz.
func (rt *Router) membStats() *MembershipStats {
	v := rt.view()
	gRingEpoch.Set(float64(v.Epoch))
	rt.drain.mu.Lock()
	ms := &MembershipStats{
		Epoch:           v.Epoch,
		Members:         v.Members,
		Hash:            v.Hash(),
		Draining:        rt.drain.active,
		DrainHandedOff:  rt.drain.handedOff,
		DrainFailures:   rt.drain.failures,
		DrainIncomplete: rt.drain.incomplete,
	}
	rt.drain.mu.Unlock()
	if ms.Draining {
		ms.DrainRemaining = len(rt.srv.LocalIDs())
	}
	return ms
}

// Drain gracefully removes this replica from the cluster: shed creates,
// leave the ring (bumping the epoch, broadcast to peers), then run the
// janitor's hand-off pass (handOffNotOwned) until no session is local or
// the DrainTimeout bound (layered onto ctx) expires, backing off 100 ms
// after a pass that moved nothing. Returns nil when every session landed;
// an explicit drain-incomplete error otherwise — the un-handed-off
// sessions stay live and keep serving. Idempotent: a second call returns
// immediately (the first owns the loop).
func (rt *Router) Drain(ctx context.Context) error {
	rt.drain.mu.Lock()
	if rt.drain.active {
		rt.drain.mu.Unlock()
		return nil
	}
	rt.drain.active = true // CreateSessionCtx sheds from here on
	rt.drain.mu.Unlock()

	prev := rt.view()
	if v, changed := rt.memb.Leave(rt.cfg.Self); changed {
		mMembChanges.Inc()
		rt.journalViewDiff(ctx, prev, v)
		rt.broadcast(v)
	}
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.DrainTimeout)
	defer cancel()

	start := time.Now()
	n := len(rt.srv.LocalIDs())
	obs.Logger().Info("drain started", "self", rt.cfg.Self,
		"sessions", n, "timeout", rt.cfg.DrainTimeout)
	rt.srv.journal.Record(ctx, "drain", "started: %d sessions to hand off", n)
	for {
		rt.handoffMu.Lock()
		progress := rt.handOffNotOwned(ctx)
		rt.handoffMu.Unlock()
		n = len(rt.srv.LocalIDs())
		if n == 0 {
			ms := rt.membStats()
			obs.Logger().Info("drain complete", "self", rt.cfg.Self,
				"handed_off", ms.DrainHandedOff, "elapsed", time.Since(start))
			rt.srv.journal.Record(ctx, "drain", "complete: %d sessions handed off",
				ms.DrainHandedOff)
			return nil
		}
		if ctx.Err() != nil {
			rt.drain.mu.Lock()
			rt.drain.incomplete = true
			rt.drain.mu.Unlock()
			obs.Logger().Error("drain incomplete", "self", rt.cfg.Self,
				"remaining", n, "elapsed", time.Since(start))
			rt.srv.journal.Record(context.Background(), "drain",
				"incomplete: %d sessions still local after %s", n, rt.cfg.DrainTimeout)
			return fmt.Errorf("serve: drain incomplete: %d sessions still local after %s",
				n, rt.cfg.DrainTimeout)
		}
		if !progress {
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

// handOffNotOwned is one hand-off pass, shared by the janitor and Drain:
// it hands off every local session whose live owner is another replica —
// failover copies going back to a recovered owner, or, while draining,
// everything. With no live owner at all the session stays unless the
// router is draining; then it is persisted and evicted without a notify.
// progress reports that some hand-off landed. Callers hold handoffMu, so
// no two goroutines ever move the same session at once.
func (rt *Router) handOffNotOwned(ctx context.Context) (progress bool) {
	for _, id := range rt.srv.LocalIDs() {
		if ctx.Err() != nil {
			break
		}
		owner, _ := rt.ownerFor(id)
		if owner == rt.cfg.Self || (owner == "" && !rt.Draining()) {
			continue
		}
		if rt.handOff(ctx, id, owner) == nil {
			progress = true
		}
	}
	return progress
}

// handOff moves one live session off this replica: persist, then notify
// owner to re-hydrate from the store (skipped when owner is ""), then
// evict. Persist-first means the new owner hydrates state at least as
// fresh as anything served here. Notify-before-evict makes it drop any
// stale copy it still holds before requests route back to it. A failed
// step leaves the session live here for the next pass.
//
// The persist is persistSession, the write-through path with the store
// breaker and replay queue, not the breaker-blind persistSessionDirect:
// a hand-off under a store outage opens the breaker and queues a replay
// like any other persist, whether the janitor or a drain made it. An
// ErrFenced answer counts as landed (the store holds newer state from the
// current owner).
//
// Every eviction bumps serve.sessions_evicted; one made while the router
// is draining is also a drain hand-off, whichever loop made it, as is a
// failure a drain failure.
func (rt *Router) handOff(ctx context.Context, id, owner string) error {
	s := rt.srv
	sess := s.live(id)
	if sess == nil {
		return nil // already gone
	}
	err := s.persistSession(ctx, sess)
	if errors.Is(err, store.ErrFenced) {
		err = nil
	}
	if err == nil && owner != "" {
		err = rt.notifyRehydrate(owner, id)
	}
	if err != nil {
		rt.drain.mu.Lock()
		if rt.drain.active {
			rt.drain.failures++
			mDrainFailures.Inc()
		}
		rt.drain.mu.Unlock()
		obs.Logger().Warn("hand-off deferred; session stays live",
			"session", id, "owner", owner, "err", err)
		return err
	}
	// Evict and count under drain.mu: a stats reader that sees the
	// session gone also sees it counted.
	rt.drain.mu.Lock()
	evicted := s.detach(id) != nil
	if evicted {
		mEvicted.Inc()
		if rt.drain.active {
			rt.drain.handedOff++
			mDrainHandoffs.Inc()
		}
	}
	rt.drain.mu.Unlock()
	if evicted {
		obs.Logger().Info("session handed off", "session", id, "owner", owner)
	}
	return nil
}

// membershipView is the GET /v1/membership (and sync-response) body.
type membershipView struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Hash    string   `json:"hash"`
}

func viewBody(v shard.View) membershipView {
	return membershipView{Epoch: v.Epoch, Members: v.Members, Hash: v.Hash()}
}

// membershipMutation is the POST /v1/membership admin body.
type membershipMutation struct {
	// Action is "join", "leave", or "drain".
	Action string `json:"action"`
	// Node is the join/leave target (its base URL, the ring node name).
	// A drain must be posted to the draining replica itself; Node, if
	// set, must match it.
	Node string `json:"node,omitempty"`
}

// membershipSyncRequest is the replica-to-replica view push.
type membershipSyncRequest struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// rehydrateRequest is the hand-off notification body: "your session; I
// persisted it; re-read the store before serving it again".
type rehydrateRequest struct {
	ID string `json:"id"`
}

// handleMembershipGet returns the current view (ungated: peers and
// operators read it freely).
func (rt *Router) handleMembershipGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, viewBody(rt.view()))
}

// handleMembershipPost is the topology admin endpoint, gated like the
// chaos endpoint: join and leave mutate the view and broadcast it; drain
// starts this replica's graceful exit in the background and answers 202
// immediately (progress is in /v1/stats.membership).
func (rt *Router) handleMembershipPost(w http.ResponseWriter, r *http.Request) {
	if !rt.srv.cfg.MembershipAdmin {
		writeJSON(w, http.StatusForbidden, errorResponse{
			Error: "membership admin endpoint disabled; start the server with membership admin enabled"})
		return
	}
	var req membershipMutation
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad membership body: " + err.Error()})
		return
	}
	switch req.Action {
	case "join", "leave":
		if req.Node == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "membership " + req.Action + " requires node"})
			return
		}
		prev := rt.view()
		var v shard.View
		var changed bool
		if req.Action == "join" {
			v, changed = rt.memb.Join(req.Node)
		} else {
			v, changed = rt.memb.Leave(req.Node)
		}
		if changed {
			mMembChanges.Inc()
			obs.Logger().Info("membership changed", "action", req.Action,
				"node", req.Node, "epoch", v.Epoch, "members", len(v.Members))
			rt.journalViewDiff(r.Context(), prev, v)
			rt.broadcast(v)
			// A joined node learns its own admission immediately (it is a
			// member now, so broadcast already covers it; this is only for
			// the node that was just removed and would otherwise serve a
			// stale view until its next probe).
			if req.Action == "leave" && req.Node != rt.cfg.Self {
				go rt.postSync(req.Node, v)
			}
			rt.kickJanitor()
		}
		writeJSON(w, http.StatusOK, viewBody(v))
	case "drain":
		if req.Node != "" && req.Node != rt.cfg.Self {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: "drain must be posted to the draining node itself (node=" + req.Node + ", self=" + rt.cfg.Self + ")"})
			return
		}
		go func() {
			_ = rt.Drain(context.Background())
		}()
		writeJSON(w, http.StatusAccepted, viewBody(rt.view()))
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "unknown membership action " + req.Action})
	}
}

// handleMembershipSync receives a peer's view push (ungated — it can only
// move the local view forward, by the Adopt total order) and answers with
// the view now in effect, so a pushing peer with the older view learns
// the newer one from the response.
func (rt *Router) handleMembershipSync(w http.ResponseWriter, r *http.Request) {
	var req membershipSyncRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad sync body: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, viewBody(rt.adoptView(r.Context(), req.Epoch, req.Members, "pushed")))
}

// handleRehydrate receives a hand-off notification: the sender persisted
// the session and this replica now owns it, so drop any live (possibly
// stale) local copy and re-hydrate from the store before serving. 200
// is the sender's licence to evict its copy. A draining replica takes no
// sessions: a sender that still counts it as the owner routes by a stale
// view, keeps its copy, and retries once it adopts the newer one —
// accepting would hand the session straight back into the drain.
func (rt *Router) handleRehydrate(w http.ResponseWriter, r *http.Request) {
	var req rehydrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || req.ID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad rehydrate body"})
		return
	}
	if rt.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining: not taking sessions"})
		return
	}
	if _, err := rt.srv.rehydrateSession(r.Context(), req.ID); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrSessionNotFound) {
			code = http.StatusNotFound
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "rehydrated", "id": req.ID})
}

// broadcast pushes view v to every member except self (fire-and-forget:
// a missed push converges via the probe's skew detection).
func (rt *Router) broadcast(v shard.View) {
	for _, node := range v.Members {
		if node == rt.cfg.Self {
			continue
		}
		go rt.postSync(node, v)
	}
}

// adoptView offers a view learned from a peer to the membership (the Adopt
// total order decides) and, when it wins, journals the change and wakes
// the janitor. how says where the view came from. It returns the view now
// in effect.
func (rt *Router) adoptView(ctx context.Context, epoch uint64, members []string, how string) shard.View {
	prev := rt.view()
	v, adopted := rt.memb.Adopt(epoch, members)
	if adopted {
		mViewsAdopted.Inc()
		obs.Logger().Info("membership view adopted", "how", how,
			"epoch", v.Epoch, "members", len(v.Members))
		rt.journalViewDiff(ctx, prev, v)
		rt.srv.journal.Record(ctx, "view_adopted",
			"epoch %d, %d members (%s)", v.Epoch, len(v.Members), how)
		rt.kickJanitor()
	}
	return v
}

// rpcTrace opens the one-span trace a replica-originated RPC runs under:
// peerCall sends its traceparent, so the peer's handler segment joins the
// same trace id and the hop is visible end to end in the federated trace
// view. attrs are key, value pairs set on the span. done ends the span —
// failed when err is non-nil — and retains the trace.
func (rt *Router) rpcTrace(name, span string, attrs ...string) (ctx context.Context, done func(error)) {
	tr := obs.NewTrace(name)
	sp := tr.Start(span)
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	return obs.WithTrace(context.Background(), tr), func(err error) {
		sp.Fail(err)
		tr.Finish()
		rt.srv.traces.Add(tr)
	}
}

// postSync pushes one view to one peer and adopts the peer's answer if
// it turns out newer (the push raced a fresher mutation).
func (rt *Router) postSync(node string, v shard.View) {
	ctx, done := rt.rpcTrace("rpc.membership_sync", "sync",
		"peer", node, "epoch", strconv.FormatUint(v.Epoch, 10))
	body, _ := json.Marshal(membershipSyncRequest{Epoch: v.Epoch, Members: v.Members})
	var got membershipView
	_, err := rt.peerCall(ctx, node, peerReq{kind: kindFederated,
		method: http.MethodPost, path: "/v1/membership/sync", body: body, out: &got})
	if err != nil {
		obs.Logger().Warn("membership sync push failed", "peer", node, "err", err)
	} else {
		rt.adoptView(ctx, got.Epoch, got.Members, "from "+node)
	}
	done(err)
}

// pullViewFrom fetches node's view and adopts it if newer. Used when a
// forward or probe reveals this replica's view is stale.
func (rt *Router) pullViewFrom(node string) {
	if node == "" || node == rt.cfg.Self {
		return
	}
	ctx, done := rt.rpcTrace("rpc.membership_pull", "pull", "peer", node)
	var got membershipView
	_, err := rt.peerGet(ctx, node, "/v1/membership", &got)
	if err != nil {
		obs.Logger().Warn("membership pull failed", "peer", node, "err", err)
	} else {
		rt.adoptView(ctx, got.Epoch, got.Members, "pulled from "+node)
	}
	done(err)
}

// notifyRehydrate tells owner to re-hydrate id from the store. The
// caller must have persisted first; only a 200 licences eviction.
func (rt *Router) notifyRehydrate(owner, id string) error {
	ctx, done := rt.rpcTrace("rpc.rehydrate", "rehydrate", "peer", owner, "session", id)
	body, _ := json.Marshal(rehydrateRequest{ID: id})
	_, err := rt.peerCall(ctx, owner, peerReq{kind: kindFederated,
		method: http.MethodPost, path: "/v1/rehydrate", body: body})
	done(err)
	return err
}
