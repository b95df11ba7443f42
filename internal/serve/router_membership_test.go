package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wemac"
)

// topoTrio is a three-replica deployment built for live-topology tests:
// each replica carries its OWN shard.Membership (views converge through
// broadcast and probe anti-entropy, exactly like separate processes),
// the membership admin endpoint is armed, and the shared file store is
// fault-wrapped so drains can run against a dead store. initialMembers
// picks how many of the three replicas are in the epoch-1 ring — with 2,
// the third boots as a standby awaiting its join.
type topoTrio struct {
	srvs    [3]*Server
	routers [3]*Router
	https   [3]*httptest.Server
	membs   [3]*shard.Membership
	nodes   [3]string
	store   store.Store
	inj     *fault.Injector
}

func newTopoTrio(t *testing.T, initialMembers int, healthInterval, drainTimeout time.Duration) *topoTrio {
	t.Helper()
	inner, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	inj := fault.New(99)
	st := store.WithFault(inner, inj)
	tr := &topoTrio{store: st, inj: inj}
	var swaps [3]*swapHandler
	for i := range swaps {
		swaps[i] = &swapHandler{}
		tr.https[i] = httptest.NewServer(swaps[i])
		tr.nodes[i] = tr.https[i].URL
	}
	pipe, _ := fixture(t)
	for i := range tr.srvs {
		self := tr.nodes[i]
		memb := shard.NewMembership(tr.nodes[:initialMembers], 0)
		tr.membs[i] = memb
		cfg := Config{
			MaxDelay: 500 * time.Microsecond,
			Store:    st,
			Self:     self,
			OwnsID: func(id string) bool {
				v := memb.View()
				return v.Contains(self) && v.Ring().Owner(id) == self
			},
			SnapshotInterval:      time.Hour,
			StoreBreakerThreshold: 2,
			StoreBreakerCooldown:  100 * time.Millisecond,
			ReplayQueueCap:        64,
			Fault:                 inj,
			MembershipAdmin:       true,
		}
		srv, err := New(pipe, cfg)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		tr.srvs[i] = srv
		tr.routers[i] = NewRouter(srv, RouterConfig{
			Self:                  self,
			Membership:            memb,
			HealthInterval:        healthInterval,
			ForwardAttemptTimeout: 250 * time.Millisecond,
			PeerBreakerThreshold:  2,
			PeerBreakerCooldown:   250 * time.Millisecond,
			DrainTimeout:          drainTimeout,
		})
		swaps[i].set(tr.routers[i].Handler())
	}
	t.Cleanup(func() {
		inj.Enable(fault.StorePutFail, 0)
		for i := range tr.srvs {
			tr.https[i].Close()
			tr.routers[i].Stop()
			tr.srvs[i].Shutdown()
		}
		st.Close()
	})
	return tr
}

func (tr *topoTrio) post(t *testing.T, base, path string, body any) (*http.Response, []byte) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

// topoSession is one tracked session in a topology test.
type topoSession struct {
	id      string
	user    *wemac.UserMaps
	windows int
}

// createOn mints a session on replica home and returns its tracker.
func (tr *topoTrio) createOn(t *testing.T, home int, u *wemac.UserMaps) *topoSession {
	t.Helper()
	resp, body := tr.post(t, tr.nodes[home], "/v1/sessions",
		CreateSessionRequest{UserID: u.ID, ExpectedWindows: 64})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create on %d: %d %s", home, resp.StatusCode, body)
	}
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return &topoSession{id: cr.ID, user: u}
}

// postWindow streams session si's next window via replica `via` and
// asserts the cumulative count the cluster reports matches what the
// client was told before — the zero-lifecycle-loss check.
func (tr *topoTrio) postWindow(t *testing.T, via string, si *topoSession) {
	t.Helper()
	lm := si.user.Maps[si.windows%len(si.user.Maps)]
	resp, body := tr.post(t, via, "/v1/sessions/"+si.id+"/windows", WindowPayload{Map: &MapPayload{
		Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window via %s for %s: %d %s", via, si.id, resp.StatusCode, body)
	}
	var wr WindowResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatalf("window response: %v", err)
	}
	si.windows++
	if wr.Windows != si.windows {
		t.Fatalf("session %s window count %d, want %d (state lost across topology change)",
			si.id, wr.Windows, si.windows)
	}
}

// TestMembershipJoinDrainLifecycle is the live-topology acceptance test:
// two members and a standby boot with independent views; a runtime join
// admits the standby (epochs converge by broadcast + probe), the janitor
// hands moved sessions to the new owner — which re-hydrates from the
// store, never serving a blind copy — a deliberately stale fenced write
// is rejected at the store, and a graceful drain removes a member with
// every session handed off and still answering. Zero lifecycle loss
// throughout.
func TestMembershipJoinDrainLifecycle(t *testing.T) {
	tr := newTopoTrio(t, 2, 25*time.Millisecond, 10*time.Second)
	_, users := fixture(t)
	ctx := context.Background()

	// Standby boot: replica 2 is not a member and owns nothing.
	if v := tr.routers[2].view(); v.Epoch != 1 || v.Contains(tr.nodes[2]) {
		t.Fatalf("standby view = epoch %d, contains self %v; want epoch 1, false",
			v.Epoch, v.Contains(tr.nodes[2]))
	}

	// A standby accepts client creates by forwarding them to a member.
	viaStandby := tr.createOn(t, 2, users[0])
	preRing := shard.New(tr.nodes[:2], 0)
	if o := preRing.Owner(viaStandby.id); o == tr.nodes[2] {
		t.Fatalf("standby-created session %s owned by the standby", viaStandby.id)
	}

	// Seed sessions on the two members until at least two will move to
	// the joining node and at least one stays on node 1, the drain target,
	// under the post-join ring (its placement is fixed by consistent
	// hashing, so we can compute it up front).
	postRing := preRing.With(tr.nodes[2])
	sessions := []*topoSession{viaStandby}
	moved, kept := 0, 0
	for i := 0; len(sessions) < 40 && (moved < 2 || kept < 1 || len(sessions) < 8); i++ {
		si := tr.createOn(t, i%2, users[(i+1)%len(users)])
		sessions = append(sessions, si)
		switch postRing.Owner(si.id) {
		case tr.nodes[2]:
			moved++
		case tr.nodes[1]:
			kept++
		}
	}
	if moved < 2 || kept < 1 {
		t.Fatalf("of %d minted sessions %d move to the joining node and %d stay on node 1",
			len(sessions), moved, kept)
	}
	for _, si := range sessions {
		tr.postWindow(t, tr.nodes[0], si)
	}

	// ── Join: admit the standby through the admin endpoint on node 0. ──
	rehydratedBefore := mRehydrated.Value()
	resp, body := tr.post(t, tr.nodes[0], "/v1/membership",
		membershipMutation{Action: "join", Node: tr.nodes[2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}
	var mv membershipView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatalf("join response: %v", err)
	}
	if mv.Epoch != 2 || len(mv.Members) != 3 {
		t.Fatalf("post-join view = epoch %d, %d members; want epoch 2, 3", mv.Epoch, len(mv.Members))
	}
	waitFor(t, 5*time.Second, "all replicas to converge on the joined view", func() bool {
		for i := range tr.routers {
			v := tr.routers[i].view()
			if v.Epoch < 2 || !v.Contains(tr.nodes[2]) {
				return false
			}
		}
		return true
	})

	// The janitor hands every moved session to the new owner: persist →
	// notify-rehydrate → evict. The new owner must hold them live.
	waitFor(t, 10*time.Second, "moved sessions to hand off to the joined node", func() bool {
		for _, si := range sessions {
			if postRing.Owner(si.id) != tr.nodes[2] {
				continue
			}
			if !tr.srvs[2].HasLocal(si.id) {
				return false
			}
		}
		for i := 0; i < 2; i++ {
			st := tr.routers[i].stats()
			if st.LocalSessions != st.OwnedSessions {
				return false
			}
		}
		return true
	})
	// The handoff went through re-hydration (the stale-copy fix), not a
	// blind transfer: and the hydrated state kept every window.
	if got := mRehydrated.Value(); got < rehydratedBefore+int64(moved) {
		t.Fatalf("rehydrations = %d, want >= %d (handoff must re-hydrate from the store)",
			got-rehydratedBefore, moved)
	}
	for _, si := range sessions {
		if postRing.Owner(si.id) != tr.nodes[2] {
			continue
		}
		sess, err := tr.srvs[2].Session(si.id)
		if err != nil {
			t.Fatalf("joined node lost handed-off session %s: %v", si.id, err)
		}
		if st := sess.Status(); st.Windows != si.windows {
			t.Fatalf("handed-off session %s hydrated with %d windows, want %d", si.id, st.Windows, si.windows)
		}
	}
	// Zero loss across the join: every session takes its next window.
	for _, si := range sessions {
		tr.postWindow(t, tr.nodes[0], si)
	}

	// ── Fencing: a deliberately stale write must lose at the store. ──
	// Every post-join persist carries an epoch-2 fence; replaying bytes
	// under the pre-join fence is exactly a lagging ex-owner's write.
	var movedID string
	for _, si := range sessions {
		if postRing.Owner(si.id) == tr.nodes[2] {
			movedID = si.id
			break
		}
	}
	data, err := tr.store.GetSession(ctx, movedID)
	if err != nil {
		t.Fatalf("read durable record %s: %v", movedID, err)
	}
	if err := tr.store.PutSessionFenced(ctx, movedID, store.Fence{Epoch: 1, Seq: 1}, data); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale epoch-1 write = %v, want store.ErrFenced", err)
	}

	// ── Drain: gracefully remove node 1 through its own admin endpoint. ──
	resp, body = tr.post(t, tr.nodes[1], "/v1/membership", membershipMutation{Action: "drain"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	waitFor(t, 10*time.Second, "drain to hand off every local session", func() bool {
		if !tr.routers[1].Draining() {
			return false
		}
		ms := tr.routers[1].membStats()
		return len(tr.srvs[1].LocalIDs()) == 0 && ms.DrainRemaining == 0 && !ms.DrainIncomplete
	})
	if ms := tr.routers[1].membStats(); ms.DrainHandedOff == 0 {
		t.Fatal("drain reports zero handoffs despite owning sessions")
	}
	waitFor(t, 5*time.Second, "survivors to converge on the drained view", func() bool {
		for _, i := range []int{0, 2} {
			v := tr.routers[i].view()
			if v.Epoch < 3 || v.Contains(tr.nodes[1]) {
				return false
			}
		}
		return true
	})

	// A drained replica sheds creates with 503 + Retry-After — explicit
	// admission control, not an opaque failure.
	resp, _ = tr.post(t, tr.nodes[1], "/v1/sessions",
		CreateSessionRequest{UserID: users[0].ID, ExpectedWindows: 4})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on drained replica = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drained-create 503 carries no Retry-After header")
	}

	// Zero loss across the drain: every session — including those node 1
	// owned — answers its next window through a survivor, cumulative.
	for _, si := range sessions {
		tr.postWindow(t, tr.nodes[0], si)
	}
	if v := tr.routers[0].view(); len(v.Members) != 2 {
		t.Fatalf("final ring size %d, want 2", len(v.Members))
	}
}

// TestDrainCountsHandOffsUnderSpinningJanitor pins drain accounting
// against the janitor. With a 1 ms janitor cadence a hand-off pass is
// almost always in flight when Drain leaves the ring, so either loop may
// move a given session. Every session local when the drain started must
// count as a drain hand-off, whichever loop evicted it, and must be
// evicted exactly once.
func TestDrainCountsHandOffsUnderSpinningJanitor(t *testing.T) {
	tr := newTopoTrio(t, 2, time.Millisecond, 10*time.Second)
	_, users := fixture(t)

	var sessions []*topoSession
	for i := 0; i < 8; i++ {
		si := tr.createOn(t, 1, users[i%len(users)])
		sessions = append(sessions, si)
		tr.postWindow(t, tr.nodes[1], si)
	}
	local := len(tr.srvs[1].LocalIDs())
	if local != len(sessions) {
		t.Fatalf("draining node holds %d sessions, want %d", local, len(sessions))
	}
	evictedBefore := mEvicted.Value()
	if err := tr.routers[1].Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if ms := tr.routers[1].membStats(); ms.DrainHandedOff != local || ms.DrainRemaining != 0 {
		t.Fatalf("drain stats = %+v, want %d handed off and 0 remaining", ms, local)
	}
	if got := mEvicted.Value() - evictedBefore; got != int64(local) {
		t.Fatalf("sessions_evicted rose by %d, want %d (one eviction per session)", got, local)
	}
	for _, si := range sessions {
		tr.postWindow(t, tr.nodes[0], si)
	}
}

// TestDrainShedsRacingCreates races eight create loops against a drain of
// the replica they post to. Every create answers 201 or 503 with
// Retry-After, and every 201 ends up handed off to the survivor. The
// whole race runs under a 10 s deadline: CreateSessionCtx reads Draining
// before taking s.mu because a hand-off holds the drain lock while it
// takes s.mu, and an inversion of that order would hang here.
func TestDrainShedsRacingCreates(t *testing.T) {
	tr := newTopoTrio(t, 2, 50*time.Millisecond, 10*time.Second)
	_, users := fixture(t)
	node := tr.nodes[1]

	var (
		mu         sync.Mutex
		created    []string
		shed       int
		unexpected []string
	)
	post := func(g int) (code int) {
		js, _ := json.Marshal(CreateSessionRequest{UserID: users[g%len(users)].ID, ExpectedWindows: 16})
		resp, err := http.Post(node+"/v1/sessions", "application/json", bytes.NewReader(js))
		if err != nil {
			mu.Lock()
			unexpected = append(unexpected, err.Error())
			mu.Unlock()
			return 0
		}
		var cr CreateSessionResponse
		_ = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case resp.StatusCode == http.StatusCreated:
			created = append(created, cr.ID)
		case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
			shed++
		default:
			unexpected = append(unexpected, resp.Status)
		}
		return resp.StatusCode
	}
	createdSoFar := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(created)
	}

	finished := make(chan error, 1)
	go func() {
		drained := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Post for as long as the drain runs (bounded).
				for i := 0; i < 1000; i++ {
					select {
					case <-drained:
						return
					default:
					}
					if post(g) == 0 {
						return
					}
				}
			}(g)
		}
		// Give the drain some sessions to hand off before it starts.
		for wait := time.Now().Add(5 * time.Second); createdSoFar() < 8 && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		err := tr.routers[1].Drain(context.Background())
		close(drained)
		wg.Wait()
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		// A deadlock wedges the cleanup too (httptest.Server.Close waits for
		// the stuck handlers), so neither t.Fatal nor a panic would end the
		// run: dump every goroutine and exit instead of hanging the suite.
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		fmt.Fprintln(os.Stderr, "--- FAIL: TestDrainShedsRacingCreates: creates racing a drain did not finish within 10s (lock-order inversion?)")
		os.Exit(1)
	}

	if len(unexpected) > 0 {
		t.Fatalf("creates racing the drain answered %v; want only 201 or 503 + Retry-After", unexpected)
	}
	if shed == 0 {
		t.Fatalf("no create was shed: the drain never overlapped the create loops (%d created)", len(created))
	}
	t.Logf("%d creates answered 201, %d shed", len(created), shed)
	ms := tr.routers[1].membStats()
	if ms.DrainRemaining != 0 || len(tr.srvs[1].LocalIDs()) != 0 {
		t.Fatalf("drain left sessions behind: stats %+v, %d local", ms, len(tr.srvs[1].LocalIDs()))
	}
	for _, id := range created {
		if !tr.srvs[0].HasLocal(id) {
			t.Fatalf("created session %s was not handed off to the survivor", id)
		}
	}
}

// TestEpochSkewForwardRefusalAndCatchUp pins the epoch fencing on the
// forward path in both directions. A sender resolving ownership under a
// stale view is refused with 421 + the receiver's epoch, pulls the newer
// view, and re-resolves — one bounded retry, no stale serving, no loop.
// A sender carrying a NEWER epoch makes the receiver pull the sender's
// view before serving. Probes are parked (hour-long interval) so the
// skew cannot heal behind the test's back.
func TestEpochSkewForwardRefusalAndCatchUp(t *testing.T) {
	tr := newTopoTrio(t, 3, time.Hour, 10*time.Second)
	_, users := fixture(t)
	ctx := context.Background()

	// Mint a session on node 1 whose post-leave owner is node 2, so the
	// corrected re-forward after the 421 has a remote target.
	full := shard.New(tr.nodes[:], 0)
	without1 := full.Without(tr.nodes[1])
	var si *topoSession
	for i := 0; i < 40; i++ {
		c := tr.createOn(t, 1, users[i%len(users)])
		if without1.Owner(c.id) == tr.nodes[2] {
			si = c
			break
		}
	}
	if si == nil {
		t.Fatal("could not mint a session that re-homes to node 2")
	}
	tr.postWindow(t, tr.nodes[0], si) // normal same-epoch forward 0 → 1

	// Topology change node 0 misses: node 1 leaves, nodes 1 and 2 know.
	v, changed := tr.membs[1].Leave(tr.nodes[1])
	if !changed || v.Epoch != 2 {
		t.Fatalf("leave: changed=%v epoch=%d", changed, v.Epoch)
	}
	if _, adopted := tr.membs[2].Adopt(v.Epoch, v.Members); !adopted {
		t.Fatal("node 2 did not adopt the leave view")
	}
	// Node 1 hands its copy off out-of-band (persist, then evict) so the
	// stale forward cannot be satisfied from its registry.
	sess, err := tr.srvs[1].Session(si.id)
	if err != nil {
		t.Fatalf("session on node 1: %v", err)
	}
	if err := tr.srvs[1].persistSession(ctx, sess); err != nil {
		t.Fatalf("persist before evict: %v", err)
	}
	tr.srvs[1].detach(si.id)

	// Stale sender: node 0 (epoch 1) forwards to node 1, which no longer
	// owns or holds the ID under its epoch-2 ring → 421 → node 0 adopts
	// the newer view and re-forwards to node 2, which hydrates. The
	// client sees one clean 200 with nothing lost.
	tr.postWindow(t, tr.nodes[0], si)
	if got := tr.routers[0].view().Epoch; got != 2 {
		t.Fatalf("sender epoch after 421 catch-up = %d, want 2", got)
	}
	if !tr.srvs[2].HasLocal(si.id) {
		t.Fatal("re-forwarded session not live on its epoch-2 owner")
	}

	// Newer sender: node 0 jumps ahead (same member set, higher epoch);
	// its forward makes the receiver pull and adopt before serving.
	if _, adopted := tr.membs[0].Adopt(5, tr.routers[0].view().Members); !adopted {
		t.Fatal("node 0 did not adopt the fabricated epoch-5 view")
	}
	tr.postWindow(t, tr.nodes[0], si)
	waitFor(t, 2*time.Second, "receiver to adopt the newer sender view", func() bool {
		return tr.routers[2].view().Epoch == 5
	})
}

// TestHandBackRehydratesStaleCopy is the stale-copy regression test: an
// owner that kept serving a live copy, lost ownership to a partition
// failover, and then got the session handed back must re-hydrate from
// the store — not resume its pre-partition copy, which is missing every
// window the failover owner accepted.
func TestHandBackRehydratesStaleCopy(t *testing.T) {
	tr := newChaosTrio(t)
	_, users := fixture(t)

	// Mint a session owned by replica 2 and land two windows, so replica
	// 2 holds a live copy with pushed=2.
	u := users[1]
	var cr CreateSessionResponse
	resp, body := tr.post(t, tr.https[2].URL, "/v1/sessions",
		CreateSessionRequest{UserID: u.ID, ExpectedWindows: 64})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	postVia := func(via string, i int) {
		t.Helper()
		lm := u.Maps[i%len(u.Maps)]
		resp, body := tr.post(t, via, "/v1/sessions/"+cr.ID+"/windows", WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d via %s: %d %s", i, via, resp.StatusCode, body)
		}
	}
	postVia(tr.https[2].URL, 0)
	postVia(tr.https[2].URL, 1)

	// Partition the owner; the failover owner serves (and persists)
	// three more windows the partitioned copy never sees.
	resp, body = tr.post(t, tr.https[2].URL, "/v1/chaos", ChaosRequest{PartitionMS: 400})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm partition: %d %s", resp.StatusCode, body)
	}
	rehydratedBefore := mRehydrated.Value()
	for i := 2; i < 5; i++ {
		postVia(tr.https[0].URL, i)
	}

	// Partition lifts; the janitor hands the session back with the
	// persist → notify-rehydrate → evict handshake. The returning owner
	// must hold the CUMULATIVE state, not its stale pushed=2 copy.
	waitFor(t, 5*time.Second, "hand-back to re-hydrate the returning owner", func() bool {
		if !tr.srvs[2].HasLocal(cr.ID) {
			return false
		}
		sess, err := tr.srvs[2].Session(cr.ID)
		if err != nil {
			return false
		}
		return sess.Status().Windows == 5
	})
	if got := mRehydrated.Value(); got <= rehydratedBefore {
		t.Fatal("hand-back did not go through rehydrateSession (stale copy would have been served)")
	}
	// And the returning owner serves the cumulative count directly.
	gr, err := http.Get(tr.https[2].URL + "/v1/sessions/" + cr.ID)
	if err != nil {
		t.Fatalf("status after hand-back: %v", err)
	}
	var stat SessionStatus
	if err := json.NewDecoder(gr.Body).Decode(&stat); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	gr.Body.Close()
	if stat.Windows != 5 {
		t.Fatalf("returning owner serves %d windows, want 5 (stale copy bug)", stat.Windows)
	}
}

// TestDrainIncompleteUnderStoreOutage pins the drain failure mode: with
// the store down, every handoff persist fails, the drain loop retries
// until DrainTimeout, and the result is an explicit drain_incomplete
// error with the un-handed-off sessions still live and serving — never
// a silent drop.
func TestDrainIncompleteUnderStoreOutage(t *testing.T) {
	tr := newTopoTrio(t, 2, 50*time.Millisecond, 700*time.Millisecond)
	_, users := fixture(t)

	var sessions []*topoSession
	for i := 0; i < 3; i++ {
		si := tr.createOn(t, 1, users[i%len(users)])
		sessions = append(sessions, si)
		tr.postWindow(t, tr.nodes[1], si)
	}

	tr.inj.Enable(fault.StorePutFail, 1)
	err := tr.routers[1].Drain(context.Background())
	if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
		t.Fatalf("drain under store outage = %v, want explicit drain-incomplete error", err)
	}
	ms := tr.routers[1].membStats()
	if !ms.DrainIncomplete || ms.DrainRemaining != len(sessions) || ms.DrainFailures == 0 {
		t.Fatalf("drain stats = %+v, want incomplete with %d remaining and failures recorded", ms, len(sessions))
	}
	// Nothing was dropped: every session is still live on the draining
	// replica and keeps serving (durability decoupled from the outage).
	tr.inj.Enable(fault.StorePutFail, 0)
	for _, si := range sessions {
		if !tr.srvs[1].HasLocal(si.id) {
			t.Fatalf("session %s dropped by an incomplete drain", si.id)
		}
		tr.postWindow(t, tr.nodes[1], si)
	}
}
