package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Router turns one Server replica into a member of a multi-node
// deployment: a consistent-hash ring (internal/shard) maps every session
// ID to exactly one owning replica, and the router either serves a
// request locally (we own it, or it was already forwarded once) or
// proxies it to the owner. Combined with the durable store this gives
// horizontal scale-out with zero lifecycle loss:
//
//   - Any replica accepts POST /v1/sessions; mint-until-owned
//     (Config.OwnsID) guarantees the new ID is locally owned, so creation
//     never forwards and replicas can never mint colliding IDs.
//   - Per-session requests hash to their owner. Non-owners forward with
//     an X-Clear-Forwarded marker; a forwarded request is always served
//     locally, so a stale or disagreeing ring can cause at most one hop,
//     never a loop.
//   - A health janitor probes peers' /healthz. Requests owned by a down
//     replica fail over to the ring's next live node (OwnerExcluding),
//     which hydrates the session from the shared store — write-through
//     persistence means the store already holds everything the dead
//     replica acknowledged. Without a persisted checkpoint the hydrated
//     session serves from the degraded cluster baseline and replays its
//     labels (the PR 3/4 machinery); with one it resumes personalised.
//   - When the owner comes back, the janitor's hand-off pass moves the
//     failover copy back by the one hand-off a drain also uses
//     (membership.go): a write-through persist, then a notify telling the
//     owner to re-hydrate from the store — so it never serves the stale
//     copy it held before losing ownership — then the evict. Exactly one
//     replica serves each session again.
//
// The ring is a runtime concept (shard.Membership): every view carries a
// monotonic epoch, replicas join/leave/drain without a restart
// (membership.go), forwards carry the sender's epoch so a disagreeing
// pair re-resolves against the newer view instead of serving stale
// ownership or looping, and every persist is fenced at
// {epoch, per-session seq} so a lagging ex-owner's write loses at the
// store. The down-set still handles transient deaths within an epoch.

// forwardedHeader marks a proxied request; its value is the forwarding
// node. Its presence forces local serving — the one-hop loop guard.
const forwardedHeader = "X-Clear-Forwarded"

// epochHeader carries the sender's ring epoch on every forward. The
// receiver compares it with its own: a newer request epoch makes the
// receiver pull the sender's view before serving; an older one makes the
// receiver refuse with 421 + its epoch (when it does not own the ID under
// its newer ring) so the sender catches up and re-resolves — never a loop,
// never serving under a ring both sides know is stale.
const epochHeader = "X-Ring-Epoch"

// nodeHeader names the replica whose handler produced the response body.
// chaosGate stamps it on every response; a proxied response relays the
// upstream's value instead (tryForward drops the local stamp before
// copying), so clients and the loadgen's stitching probe can always tell
// which replica actually served them.
const nodeHeader = "X-Clear-Node"

// federationHeader marks a request a replica originated itself rather
// than proxied for a client: fleet fan-out legs (federated trace lookup,
// fleet report scrape), membership sync and pull, the rehydrate notify
// and the health probe. A peer seeing it answers from local state only —
// the loop guard that keeps federation at exactly one hop.
const federationHeader = "X-Clear-Federated"

// forwardTimeout is the http.Client backstop over one inter-replica
// exchange; every call also runs under the shorter per-attempt deadline.
const forwardTimeout = 30 * time.Second

// peerBodyCap bounds how much of a peer's response peerCall will decode
// or drain — the largest answer (a fleet stats scrape) fits with room.
const peerBodyCap = 8 << 20

// Proxy telemetry: outcome ∈ {ok, error, timeout}; target cardinality is
// the (small, fixed) peer list.
var (
	mProxyVec   = obs.GetCounterVec("serve.proxy", "target", "outcome")
	hProxyLatUS = obs.GetHistogramVec("serve.proxy_latency_us", obs.ExpBuckets(1, 2, 26), "target")
	mEvicted    = obs.GetCounter("serve.sessions_evicted")
)

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Self is this replica's node name and the base URL peers reach it at
	// (e.g. "http://127.0.0.1:8081"). A replica whose Self is NOT in the
	// initial ring boots as a standby: it owns nothing and forwards
	// everything until an admin join admits it.
	Self string
	// Ring is the initial placement ring, the epoch-1 membership. Every
	// replica must be built with the same node list (order-insensitive:
	// the ring sorts). Ignored when Membership is set.
	Ring *shard.Ring
	// Membership, when set, is the versioned ring to route by (shared with
	// the embedding binary's OwnsID predicate). When nil one is derived
	// from Ring at epoch 1.
	Membership *shard.Membership
	// DrainTimeout bounds Drain's handoff loop: a draining replica that
	// cannot land every owned session durably within it exits with an
	// explicit drain_incomplete error instead of silently dropping them.
	// Default 30s.
	DrainTimeout time.Duration
	// HealthInterval is the peer probe + janitor cadence. Each tick is
	// jittered ±25% so a restarted node's peers don't probe in lockstep
	// (thundering-herd on recovery). Default 500ms.
	HealthInterval time.Duration
	// ForwardAttemptTimeout is the deadline of one inter-replica call: an
	// owner that hasn't answered a forward within it is presumed
	// partitioned and the request makes its single hedged retry to the
	// OwnerExcluding failover target. Default 2s (capped at 30s).
	ForwardAttemptTimeout time.Duration
	// PeerBreakerThreshold consecutive forward failures to one peer open
	// its breaker for PeerBreakerCooldown: the peer joins the effective
	// down-set, so requests fail over immediately instead of each eating
	// a forward deadline. Healthz probe outcomes feed the breakers too,
	// closing them (and triggering proactive hand-back) on recovery.
	// Defaults 3 and 2s.
	PeerBreakerThreshold int
	PeerBreakerCooldown  time.Duration
}

// Router proxies per-session requests to their ring owner.
type Router struct {
	srv    *Server
	cfg    RouterConfig
	memb   *shard.Membership
	client *http.Client

	// drain tracks graceful-drain progress (membership.go).
	drain drainState
	// handoffMu is held for a whole hand-off pass, by the janitor or by
	// Drain, so the two never move the same session at once.
	handoffMu sync.Mutex

	mu       sync.Mutex
	down     map[string]bool
	breakers map[string]*Breaker // per-peer forward breakers (lazily grown on join)

	// kick wakes the janitor immediately (buffered, coalescing): fired on
	// a peer's down→up probe transition or its breaker re-closing, so
	// failover-held sessions hand back proactively instead of waiting out
	// the next janitor tick.
	kick chan struct{}

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mForwards  *obs.Counter
	mFailovers *obs.Counter
}

// NewRouter builds a router around srv and starts its health janitor.
// Callers must Stop it before the process exits.
func NewRouter(srv *Server, cfg RouterConfig) *Router {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.ForwardAttemptTimeout <= 0 {
		cfg.ForwardAttemptTimeout = 2 * time.Second
	}
	if cfg.ForwardAttemptTimeout > forwardTimeout {
		cfg.ForwardAttemptTimeout = forwardTimeout
	}
	if cfg.PeerBreakerThreshold <= 0 {
		cfg.PeerBreakerThreshold = 3
	}
	if cfg.PeerBreakerCooldown <= 0 {
		cfg.PeerBreakerCooldown = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	memb := cfg.Membership
	if memb == nil {
		memb = shard.NewMembership(cfg.Ring.Nodes(), cfg.Ring.VNodes())
	}
	rt := &Router{
		srv:        srv,
		cfg:        cfg,
		memb:       memb,
		client:     &http.Client{Timeout: forwardTimeout},
		down:       map[string]bool{},
		breakers:   map[string]*Breaker{},
		kick:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		mForwards:  obs.GetCounter("serve.forwards"),
		mFailovers: obs.GetCounter("serve.failovers"),
	}
	for _, node := range memb.View().Members {
		if node != cfg.Self {
			rt.breakers[node] = NewBreaker(cfg.PeerBreakerThreshold, cfg.PeerBreakerCooldown)
		}
	}
	// The journal stamps the ring epoch onto every event it records, so the
	// fleet merge can order cross-node events causally.
	srv.journal.SetEpochSource(memb.Epoch)
	srv.ring.Store(rt)
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt
}

// view snapshots the current membership.
func (rt *Router) view() shard.View { return rt.memb.View() }

// breakerFor returns node's forward breaker, creating one on first use —
// peers admitted by a runtime join get breakers lazily.
func (rt *Router) breakerFor(node string) *Breaker {
	if node == rt.cfg.Self {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	br := rt.breakers[node]
	if br == nil {
		br = NewBreaker(rt.cfg.PeerBreakerThreshold, rt.cfg.PeerBreakerCooldown)
		rt.breakers[node] = br
	}
	return br
}

// Stop halts the health janitor.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopc) })
	rt.wg.Wait()
}

// Handler is the Server's route table (Server.mux, passed through at "/")
// plus what ring mode adds or overrides:
//
//   - POST /v1/sessions and the four /v1/sessions/{id} routes resolve
//     their ring owner and forward to it, serving locally when this
//     replica owns the ID (route, routeCreate);
//   - GET /v1/traces/{id} and GET /v1/fleet federate across the ring
//     (fleet.go);
//   - GET/POST /v1/membership, POST /v1/membership/sync and
//     POST /v1/rehydrate are the live-topology surface (membership.go).
//
// The chaos gate wraps the whole table once.
func (rt *Router) Handler() http.Handler {
	s := rt.srv
	local := s.mux()
	mux := http.NewServeMux()
	mux.Handle("/", local)
	mux.HandleFunc("POST /v1/sessions", rt.routeCreate(local))
	mux.HandleFunc("POST /v1/sessions/{id}/windows", rt.route("windows", local))
	mux.HandleFunc("POST /v1/sessions/{id}/labels", rt.route("labels", local))
	mux.HandleFunc("GET /v1/sessions/{id}", rt.route("status", local))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.route("delete", local))
	mux.HandleFunc("GET /v1/traces/{id}", s.traced("traces", rt.handleFederatedTrace))
	mux.HandleFunc("GET /v1/fleet", s.traced("fleet", rt.handleFleet))
	// Sync and rehydrate run traced so the caller's rpc trace id joins the
	// receiving replica's segment.
	mux.HandleFunc("GET /v1/membership", rt.handleMembershipGet)
	mux.HandleFunc("POST /v1/membership", rt.handleMembershipPost)
	mux.HandleFunc("POST /v1/membership/sync", s.traced("membership_sync", rt.handleMembershipSync))
	mux.HandleFunc("POST /v1/rehydrate", s.traced("rehydrate", rt.handleRehydrate))
	return s.chaosGate(mux)
}

// route serves a per-session endpoint locally when this replica owns the
// ID (or the request already hopped once), else forwards to the owner.
// local is the Server's own (already traced) route table.
func (rt *Router) route(endpoint string, local http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(forwardedHeader) != "" {
			rt.serveForwarded(w, r, local)
			return
		}
		id := r.PathValue("id")
		if rt.Draining() && rt.srv.HasLocal(id) {
			// Graceful drain: sessions whose handoff hasn't landed yet keep
			// serving here; once handed off, ownership routes them away.
			local.ServeHTTP(w, r)
			return
		}
		owner, failover := rt.ownerFor(id)
		if owner == "" || owner == rt.cfg.Self {
			local.ServeHTTP(w, r)
			return
		}
		if failover {
			rt.mFailovers.Inc()
		}
		rt.forward(w, r, endpoint, owner, local)
	}
}

// serveForwarded handles a request that already hopped once, fencing it
// by epoch. Same epoch (or a pre-epoch sender): serve — the one-hop
// guard's invariant. A newer request epoch means this replica missed a
// topology change: pull the sender's view, adopt it, then serve (the
// sender resolved ownership under that newer ring). An older request
// epoch means the sender is stale: serve only if this replica owns the
// ID under its newer ring (or still holds it live); otherwise answer 421
// with the local epoch so the sender catches up and re-resolves — never
// serve under a placement both sides can see is stale, and never loop.
func (rt *Router) serveForwarded(w http.ResponseWriter, r *http.Request, local http.Handler) {
	reqEpoch, _ := strconv.ParseUint(r.Header.Get(epochHeader), 10, 64)
	v := rt.view()
	switch {
	case reqEpoch > v.Epoch:
		if from := r.Header.Get(forwardedHeader); from != "" {
			rt.pullViewFrom(from)
		}
		local.ServeHTTP(w, r)
	case reqEpoch != 0 && reqEpoch < v.Epoch:
		id := r.PathValue("id")
		owner, _ := rt.ownerFor(id)
		if owner == "" || owner == rt.cfg.Self || rt.srv.HasLocal(id) {
			local.ServeHTTP(w, r)
			return
		}
		w.Header().Set(epochHeader, strconv.FormatUint(v.Epoch, 10))
		writeJSON(w, http.StatusMisdirectedRequest,
			errorResponse{Error: "serve: ring epoch mismatch: request resolved under a stale view"})
	default:
		local.ServeHTTP(w, r)
	}
}

// routeCreate serves session creation locally when this replica is a ring
// member, and forwards it to a live member otherwise — a standby (booted
// outside the ring, awaiting its join) or a drained replica can still
// accept client traffic without minting sessions it could never own.
// While shedding (graceful drain) creation stays local so the 503 +
// Retry-After admission-control answer reaches the client.
func (rt *Router) routeCreate(local http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := rt.view()
		if r.Header.Get(forwardedHeader) != "" || v.Contains(rt.cfg.Self) || rt.Draining() {
			local.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		tr := obs.NewTraceFromParent("proxy.sessions", r.Header.Get("traceparent"))
		down := rt.effectiveDown()
		for _, member := range v.Members {
			if member == rt.cfg.Self || down[member] {
				continue
			}
			if rt.tryForward(w, r, member, body, tr) == fwdOK {
				rt.mForwards.Inc()
				tr.Finish()
				rt.srv.traces.Add(tr)
				return
			}
		}
		// No live member reachable: serve locally (single-node fallback),
		// under the same trace id the forward attempts carried.
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.Header.Set("traceparent", tr.Traceparent())
		local.ServeHTTP(w, r)
	}
}

// effectiveDown is the routing down-set: peers the janitor probed down,
// plus peers whose forward breaker is open (answering healthz but failing
// forwards — an asymmetric partition). Breaker cooldown expiry promotes
// open → half-open, which drops the peer from this set so live traffic
// can probe it.
func (rt *Router) effectiveDown() map[string]bool {
	down := map[string]bool{}
	rt.mu.Lock()
	for n := range rt.down {
		down[n] = true
	}
	brs := make(map[string]*Breaker, len(rt.breakers))
	for n, br := range rt.breakers {
		brs[n] = br
	}
	rt.mu.Unlock()
	for n, br := range brs {
		if br.State() == BreakerOpen {
			down[n] = true
		}
	}
	return down
}

// ownerFor resolves an ID's live owner under the current view: the ring
// owner, skipping the effective down-set. failover reports that the
// primary owner was skipped.
func (rt *Router) ownerFor(id string) (owner string, failover bool) {
	ring := rt.view().Ring()
	down := rt.effectiveDown()
	primary := ring.Owner(id)
	if len(down) == 0 {
		return primary, false
	}
	o := ring.OwnerExcluding(id, down)
	return o, o != primary && o != ""
}

// fwdStatus classifies one forward attempt.
type fwdStatus int

const (
	// fwdOK: the peer answered and its response was relayed verbatim.
	fwdOK fwdStatus = iota
	// fwdFail: transport error or attempt deadline; nothing was written,
	// the caller can hedge or serve locally.
	fwdFail
	// fwdMisdirected: the peer refused with 421 + its (newer) epoch —
	// ownership was resolved under a stale view. Nothing was written; the
	// caller pulls the peer's view and re-resolves.
	fwdMisdirected
)

// forward proxies one request to owner, falling back — once — to the
// next live node (or local serving) when the owner turns out dead or
// misses the per-attempt deadline: the single hedged retry. A 421
// epoch-mismatch refusal instead pulls the refusing peer's newer view,
// re-resolves ownership under it, and makes one corrected forward (or
// serves locally if the newer ring points here) — bounded, never a loop.
// The round-trip is attributed to StageProxy for the windows endpoint so
// Σ stages keeps tiling wall time on the hot path.
//
// The hop runs under its own trace segment continuing the client's
// traceparent (or minting a fresh 128-bit id): each attempt records a
// `forward` span carrying the peer and ring epoch, the outgoing request
// carries the segment's traceparent so the owner's handler trace joins
// the same id, and on a relayed response the segment is retained locally
// — so GET /v1/traces/{id} federates into one tree spanning both hops.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, endpoint, owner string, local http.Handler) {
	var st *obs.StageTimer
	if endpoint == "windows" {
		st = obs.NewStageTimer()
	}
	stop := st.Time(obs.StageProxy)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		stop()
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	tr := obs.NewTraceFromParent("proxy."+endpoint, r.Header.Get("traceparent"))
	serveLocal := func() {
		stop()
		// Local serving replaces the proxy segment: hand the handler the
		// same trace id so its traced() segment keeps the client's id.
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.Header.Set("traceparent", tr.Traceparent())
		local.ServeHTTP(w, r)
	}
	switch rt.tryForward(w, r, owner, body, tr) {
	case fwdFail:
		// The owner died under us: mark it down and re-resolve. The
		// failover owner hydrates from the shared store; when it is this
		// replica, serve locally (restoring r.Body for the handler).
		rt.markDown(owner, true)
		rt.mFailovers.Inc()
		next, _ := rt.ownerFor(r.PathValue("id"))
		if next == "" || next == rt.cfg.Self || next == owner {
			serveLocal()
			return
		}
		if rt.tryForward(w, r, next, body, tr) != fwdOK {
			rt.markDown(next, true)
			serveLocal()
			return
		}
	case fwdMisdirected:
		// Our view was stale: adopt the peer's, re-resolve, one retry.
		rt.pullViewFrom(owner)
		next, _ := rt.ownerFor(r.PathValue("id"))
		if next == "" || next == rt.cfg.Self {
			serveLocal()
			return
		}
		if rt.tryForward(w, r, next, body, tr) != fwdOK {
			serveLocal()
			return
		}
	}
	stop()
	rt.mForwards.Inc()
	tr.Finish()
	rt.srv.traces.Add(tr)
	if st != nil {
		st.FlushTo(hStageUS)
	}
}

// peerKind is the header that tells the receiving replica what kind of
// inter-replica call it is looking at; its value is the calling node.
type peerKind string

const (
	// kindForward is a client request proxied to its owner; it also
	// carries this replica's ring epoch (epochHeader).
	kindForward peerKind = forwardedHeader
	// kindFederated is a call the replica originated itself.
	kindFederated peerKind = federationHeader
)

// peerReq describes one inter-replica request.
type peerReq struct {
	kind   peerKind
	method string
	path   string      // path and query on the peer
	header http.Header // base headers, owned by the call (a forward's clone of the client's)
	body   []byte      // sent as application/json unless header names another type
	out    any         // when non-nil, a 200 answer is JSON-decoded into it
	// relay, when set, is handed the response whatever its status, in place
	// of the status check and decode: a forward streams it to its client.
	relay func(*http.Response)
}

// peerCall makes one request to a peer replica and is the only place that
// does: it bounds the attempt by ForwardAttemptTimeout (or ctx's earlier
// deadline), stamps the call-kind header and the traceparent of the trace
// ctx carries, and afterwards drains the body — bounded — so the transport
// can reuse the keep-alive connection. Without relay, any status but 200 is
// an error (returned alongside the status) and a 200 body decodes into out.
// Breaker feedback is the caller's business.
func (rt *Router) peerCall(ctx context.Context, node string, rq peerReq) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, rq.method, node+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, err
	}
	if rq.header != nil {
		req.Header = rq.header
	}
	if len(rq.body) > 0 && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(string(rq.kind), rt.cfg.Self)
	if rq.kind == kindForward {
		req.Header.Set(epochHeader, strconv.FormatUint(rt.view().Epoch, 10))
	}
	if tp := obs.TraceOf(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, peerBodyCap))
		resp.Body.Close()
	}()
	switch {
	case rq.relay != nil:
		rq.relay(resp)
	case resp.StatusCode != http.StatusOK:
		return resp.StatusCode, fmt.Errorf("serve: %s %s%s answered %d", rq.method, node, rq.path, resp.StatusCode)
	case rq.out != nil:
		if err := json.NewDecoder(io.LimitReader(resp.Body, peerBodyCap)).Decode(rq.out); err != nil {
			return resp.StatusCode, fmt.Errorf("serve: %s %s%s: %w", rq.method, node, rq.path, err)
		}
	}
	return resp.StatusCode, nil
}

// peerGet is peerCall for the common shape: a replica-originated GET whose
// 200 answer decodes into out.
func (rt *Router) peerGet(ctx context.Context, node, path string, out any) (int, error) {
	return rt.peerCall(ctx, node, peerReq{kind: kindFederated, method: http.MethodGet, path: path, out: out})
}

// tryForward attempts one proxied round-trip, streaming the response
// through verbatim (status, headers, body) under the proxy trace tr, so
// the peer's handler segment joins the same 128-bit trace id. The hop is
// recorded on tr as a `forward` span carrying the peer, the epoch it was
// sent under, and its outcome. A transport error, deadline miss, or
// epoch-mismatch 421 returns with nothing written — the caller can still
// hedge, re-resolve, or serve locally; any other upstream answer is
// relayed as-is. Each attempt's outcome feeds the target's breaker,
// except when the caller itself gave up (its error, not the peer's).
func (rt *Router) tryForward(w http.ResponseWriter, r *http.Request, target string, body []byte, tr *obs.Trace) fwdStatus {
	start := time.Now()
	sp := tr.Start("forward")
	sp.SetAttr("peer", target)
	sp.SetAttr("epoch", strconv.FormatUint(rt.view().Epoch, 10))
	observe := func() { hProxyLatUS.With(target).Observe(float64(time.Since(start).Microseconds())) }
	outcome, status := "error", fwdFail
	_, err := rt.peerCall(obs.WithTrace(r.Context(), tr), target, peerReq{
		kind: kindForward, method: r.Method, path: r.URL.RequestURI(),
		header: r.Header.Clone(), body: body,
		relay: func(resp *http.Response) {
			observe()
			rt.peerDone(target, nil)
			if resp.StatusCode == http.StatusMisdirectedRequest && resp.Header.Get(epochHeader) != "" {
				outcome, status = "misdirected", fwdMisdirected
				return
			}
			// Drop the local node stamp so the relayed response keeps the
			// serving replica's — the header names whoever produced the body.
			w.Header().Del(nodeHeader)
			for k, vs := range resp.Header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
			outcome, status = "ok", fwdOK
			sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
		},
	})
	if err != nil {
		observe()
		if errors.Is(err, context.DeadlineExceeded) {
			outcome = "timeout" // attempt deadline fired: peer presumed partitioned
		}
		if r.Context().Err() == nil {
			rt.peerDone(target, err)
		}
	}
	mProxyVec.With(target, outcome).Inc()
	sp.SetAttr("outcome", outcome)
	sp.Fail(err)
	return status
}

// markDown updates one node's health, logging transitions. A down→up
// transition kicks the janitor so failover-held sessions hand back
// immediately instead of waiting out the next tick.
func (rt *Router) markDown(node string, down bool) {
	if node == rt.cfg.Self {
		return
	}
	rt.mu.Lock()
	was := rt.down[node]
	if down {
		rt.down[node] = true
	} else {
		delete(rt.down, node)
	}
	rt.mu.Unlock()
	if was != down {
		obs.Logger().Info("peer health changed", "peer", node, "down", down)
		kind := "peer_up"
		if down {
			kind = "peer_down"
		}
		rt.srv.journal.Record(context.Background(), kind, "peer %s", node)
		if !down {
			rt.kickJanitor()
		}
	}
}

// peerDone feeds one forward/probe outcome into node's breaker. The
// State() call first lazily promotes an expired open breaker to
// half-open, so a success can close it. A transition back to closed
// kicks the janitor: the owner is healthy again, hand sessions back now.
func (rt *Router) peerDone(node string, err error) {
	br := rt.breakerFor(node)
	if br == nil {
		return
	}
	before := br.State()
	br.Done(err)
	after := br.State()
	if before == after {
		return
	}
	obs.Logger().Info("peer breaker transition",
		"peer", node, "from", before.String(), "to", after.String())
	rt.srv.journal.Record(context.Background(), "peer_breaker",
		"peer %s: %s -> %s", node, before, after)
	if after == BreakerClosed {
		rt.kickJanitor()
	}
}

// kickJanitor wakes healthLoop immediately (coalescing: a pending kick
// is enough).
func (rt *Router) kickJanitor() {
	select {
	case rt.kick <- struct{}{}:
	default:
	}
}

// jittered spreads janitor ticks across [0.75, 1.25)×HealthInterval so
// replicas started together — or all watching the same peer recover —
// don't probe and hand back in lockstep.
func (rt *Router) jittered() time.Duration {
	return time.Duration(float64(rt.cfg.HealthInterval) * (0.75 + 0.5*rand.Float64()))
}

// healthLoop probes peers and runs the ownership janitor on one jittered
// cadence, waking early on kicks (peer recovery, breaker re-close).
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTimer(rt.jittered())
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-rt.kick:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		case <-rt.stopc:
			return
		}
		rt.probePeers()
		// While draining, the pass is Drain's; sessions an incomplete
		// drain left behind stay live here.
		rt.handoffMu.Lock()
		if !rt.Draining() {
			rt.handOffNotOwned(context.Background())
		}
		rt.handoffMu.Unlock()
		t.Reset(rt.jittered())
	}
}

// probePeers refreshes the down-set (and each peer's breaker) from every
// member's /healthz. The probe doubles as the anti-entropy path for the
// membership view: a peer reporting a higher epoch — or the same epoch
// with a different member-set hash — makes this replica pull and adopt
// its view, so a replica that missed a join/leave broadcast converges
// within one probe interval. (A standby probes all members; its Self is
// simply absent from the list.)
func (rt *Router) probePeers() {
	v := rt.view()
	for _, node := range v.Members {
		if node == rt.cfg.Self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
		var hz HealthzResponse
		_, err := rt.peerGet(ctx, node, "/healthz", &hz)
		cancel()
		rt.peerDone(node, err)
		rt.markDown(node, err != nil)
		if err == nil && (hz.Epoch > v.Epoch || (hz.Epoch == v.Epoch && hz.MembersHash != "" && hz.MembersHash != v.Hash())) {
			rt.pullViewFrom(node)
			v = rt.view()
		}
	}
}

// ShardStats is the consistent-hash routing block of /v1/stats.
type ShardStats struct {
	Self  string   `json:"self"`
	Nodes []string `json:"nodes"`
	Down  []string `json:"down,omitempty"`
	// OwnedSessions counts live local sessions this replica owns under
	// the ring; LocalSessions counts all live local sessions (the
	// difference is failover copies pending hand-back).
	OwnedSessions int   `json:"owned_sessions"`
	LocalSessions int   `json:"local_sessions"`
	Forwards      int64 `json:"forwards"`
	Failovers     int64 `json:"failovers"`
	Evicted       int64 `json:"evicted_sessions"`
	// PeerBreakers maps each peer to its forward-breaker state; an "open"
	// peer routes as down even while its /healthz still answers.
	PeerBreakers map[string]string `json:"peer_breakers,omitempty"`
}

// stats snapshots the routing surface for Server.Stats.
func (rt *Router) stats() *ShardStats {
	v := rt.view()
	ring := v.Ring()
	local := rt.srv.LocalIDs()
	owned := 0
	for _, id := range local {
		if ring.Owner(id) == rt.cfg.Self {
			owned++
		}
	}
	rt.mu.Lock()
	down := make([]string, 0, len(rt.down))
	for n := range rt.down {
		down = append(down, n)
	}
	breakers := make(map[string]string, len(rt.breakers))
	for n, br := range rt.breakers {
		breakers[n] = br.State().String()
	}
	rt.mu.Unlock()
	sort.Strings(down)
	return &ShardStats{
		Self:          rt.cfg.Self,
		Nodes:         v.Members,
		Down:          down,
		OwnedSessions: owned,
		LocalSessions: len(local),
		Forwards:      rt.mForwards.Value(),
		Failovers:     rt.mFailovers.Value(),
		Evicted:       mEvicted.Value(),
		PeerBreakers:  breakers,
	}
}
