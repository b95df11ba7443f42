package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wemac"
)

// chaosTrio is a three-replica deployment over one shared fault-wrapped
// file store, with chaos admin armed and fast breaker/janitor cadences.
type chaosTrio struct {
	srvs    [3]*Server
	routers [3]*Router
	https   [3]*httptest.Server
	ring    *shard.Ring
	store   store.Store
	inj     *fault.Injector
}

func newChaosTrio(t *testing.T) *chaosTrio {
	t.Helper()
	inner, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	inj := fault.New(99)
	// One injector wraps the one shared store: arming StorePutFail models
	// the shared durable backend failing for every replica at once.
	st := store.WithFault(inner, inj)
	tr := &chaosTrio{store: st, inj: inj}
	var swaps [3]*swapHandler
	nodes := make([]string, 3)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		tr.https[i] = httptest.NewServer(swaps[i])
		nodes[i] = tr.https[i].URL
	}
	tr.ring = shard.New(nodes, 0)
	pipe, _ := fixture(t)
	for i := range tr.srvs {
		self := nodes[i]
		cfg := Config{
			MaxDelay:              500 * time.Microsecond,
			Store:                 st,
			Self:                  self,
			OwnsID:                func(id string) bool { return tr.ring.Owner(id) == self },
			SnapshotInterval:      time.Hour,
			StoreBreakerThreshold: 2,
			StoreBreakerCooldown:  100 * time.Millisecond,
			ReplayQueueCap:        64,
			Fault:                 inj,
			ChaosAdmin:            true,
		}
		srv, err := New(pipe, cfg)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		tr.srvs[i] = srv
		tr.routers[i] = NewRouter(srv, RouterConfig{
			Self: self, Ring: tr.ring,
			HealthInterval:        25 * time.Millisecond,
			ForwardAttemptTimeout: 250 * time.Millisecond,
			PeerBreakerThreshold:  2,
			PeerBreakerCooldown:   250 * time.Millisecond,
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

func (tr *chaosTrio) post(t *testing.T, base, path string, body any) (*http.Response, []byte) {
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

// TestTrioStoreOutageAndPartitionChaos is the in-process mirror of the CI
// chaos smoke: three replicas share one store; mid-run the store stops
// accepting writes, then one replica is partitioned. Every request keeps
// succeeding, the write-behind queues fill and then drain to zero once
// the store heals, partitioned-owner sessions fail over, and they hand
// back after the partition lifts.
func TestTrioStoreOutageAndPartitionChaos(t *testing.T) {
	tr := newChaosTrio(t)
	_, users := fixture(t)
	ctx := context.Background()

	type sessInfo struct {
		id      string
		home    int // replica it was created on (and is owned by)
		user    *wemac.UserMaps
		windows int
	}
	postWindow := func(via string, si *sessInfo) {
		t.Helper()
		lm := si.user.Maps[si.windows%len(si.user.Maps)]
		resp, body := tr.post(t, via, "/v1/sessions/"+si.id+"/windows", WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window via %s for %s: %d %s", via, si.id, resp.StatusCode, body)
		}
		si.windows++
	}

	// Two sessions per replica; mint-until-owned pins each to its creator.
	var sessions []*sessInfo
	for i := 0; i < 6; i++ {
		u := users[i%len(users)]
		home := i % 3
		resp, body := tr.post(t, tr.https[home].URL, "/v1/sessions",
			CreateSessionRequest{UserID: u.ID, ExpectedWindows: 64})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, resp.StatusCode, body)
		}
		var cr CreateSessionResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("create response: %v", err)
		}
		sessions = append(sessions, &sessInfo{id: cr.ID, home: home, user: u})
	}
	// Healthy phase: every session takes a window through a non-owner.
	for i, si := range sessions {
		postWindow(tr.https[(si.home+1)%3].URL, si)
		_ = i
	}

	// ── Store outage: writes fail on every replica for 600ms. ──
	resp, body := tr.post(t, tr.https[0].URL, "/v1/chaos", ChaosRequest{StoreOutageMS: 600})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm store outage: %d %s", resp.StatusCode, body)
	}
	outageEnd := time.Now().Add(600 * time.Millisecond)
	// Mid-outage traffic must keep succeeding (serving is decoupled from
	// durability) and must land sessions in the replay queues.
	for _, si := range sessions {
		postWindow(tr.https[si.home].URL, si)
	}
	queued := 0
	for _, s := range tr.srvs {
		queued += s.wb.depth()
	}
	if queued == 0 {
		t.Fatal("no sessions queued for replay during the store outage")
	}
	// A dirty session reports durability at-risk through the API.
	dirty := ""
	for _, s := range tr.srvs {
		for _, si := range sessions {
			if s.wb.pending(si.id) {
				dirty = si.id
			}
		}
	}
	gr, err := http.Get(tr.https[1].URL + "/v1/sessions/" + dirty)
	if err != nil {
		t.Fatalf("status during outage: %v", err)
	}
	var stat SessionStatus
	if err := json.NewDecoder(gr.Body).Decode(&stat); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	gr.Body.Close()
	if stat.Durability != "at_risk" {
		t.Fatalf("mid-outage durability = %q, want at_risk", stat.Durability)
	}

	// Store heals: the next writes are the half-open probes; queues must
	// drain to zero and breakers re-close.
	time.Sleep(time.Until(outageEnd) + 50*time.Millisecond)
	for _, si := range sessions {
		postWindow(tr.https[si.home].URL, si)
	}
	waitFor(t, 5*time.Second, "all replay queues to drain", func() bool {
		for _, s := range tr.srvs {
			if s.wb.depth() != 0 || s.wb.br.State() != BreakerClosed {
				return false
			}
		}
		return true
	})
	for _, si := range sessions {
		if _, err := tr.store.GetSession(ctx, si.id); err != nil {
			t.Fatalf("session %s not durable after drain: %v", si.id, err)
		}
	}

	// ── Partition: replica 2 goes silent for 500ms. ──
	failoversBefore := tr.routers[0].stats().Failovers
	evictedBefore := tr.routers[0].stats().Evicted
	resp, body = tr.post(t, tr.https[2].URL, "/v1/chaos", ChaosRequest{PartitionMS: 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm partition: %d %s", resp.StatusCode, body)
	}
	// Traffic for replica-2-owned sessions through replica 0 must hedge
	// to the failover owner and succeed.
	for _, si := range sessions {
		if si.home == 2 {
			postWindow(tr.https[0].URL, si)
		}
	}
	if got := tr.routers[0].stats().Failovers; got <= failoversBefore {
		t.Fatalf("failovers = %d, want > %d after partitioned-owner traffic", got, failoversBefore)
	}

	// Partition lifts: probes see replica 2 up again, the janitor kicks,
	// and every failover copy hands back (local == owned everywhere).
	waitFor(t, 5*time.Second, "failover sessions to hand back", func() bool {
		for _, rt := range tr.routers {
			st := rt.stats()
			if st.LocalSessions != st.OwnedSessions || len(st.Down) != 0 {
				return false
			}
		}
		return true
	})
	if got := tr.routers[0].stats().Evicted; got <= evictedBefore {
		t.Fatalf("evicted = %d, want > %d after hand-back", got, evictedBefore)
	}

	// Zero lifecycle loss: every session still answers its status through
	// any replica.
	for i, si := range sessions {
		gr, err := http.Get(tr.https[i%3].URL + "/v1/sessions/" + si.id)
		if err != nil {
			t.Fatalf("final status %s: %v", si.id, err)
		}
		gr.Body.Close()
		if gr.StatusCode != http.StatusOK {
			t.Fatalf("final status %s = %d, want 200", si.id, gr.StatusCode)
		}
	}
}

// TestPeerBreakerFeedsRouting checks the per-peer breaker arc directly:
// consecutive forward failures open the breaker and pull the peer into
// the effective down-set (so routing fails over without eating a forward
// deadline), and a success after the cooldown closes it again.
func TestPeerBreakerFeedsRouting(t *testing.T) {
	tr := newChaosTrio(t)
	rt := tr.routers[0]
	peer := tr.https[1].URL

	errBoom := fmt.Errorf("boom")
	rt.peerDone(peer, errBoom)
	if down := rt.effectiveDown(); down[peer] {
		t.Fatal("one failure below threshold must not down the peer")
	}
	rt.peerDone(peer, errBoom)
	if down := rt.effectiveDown(); !down[peer] {
		t.Fatal("breaker open (threshold 2) must pull the peer into the down-set")
	}
	// Cooldown expiry half-opens the breaker: the peer leaves the
	// down-set so live traffic (or a probe) can test it.
	time.Sleep(300 * time.Millisecond)
	if down := rt.effectiveDown(); down[peer] {
		t.Fatal("half-open peer must leave the down-set")
	}
	rt.peerDone(peer, nil)
	if st := rt.breakers[peer].State(); st != BreakerClosed {
		t.Fatalf("breaker after probe success = %v, want closed", st)
	}
}

// TestJanitorJitter bounds the jittered janitor interval to the
// documented [0.75, 1.25) × HealthInterval band.
func TestJanitorJitter(t *testing.T) {
	tr := newChaosTrio(t)
	rt := tr.routers[0]
	base := rt.cfg.HealthInterval
	lo, hi := time.Duration(float64(base)*0.75), time.Duration(float64(base)*1.25)
	for i := 0; i < 200; i++ {
		if d := rt.jittered(); d < lo || d >= hi {
			t.Fatalf("jittered() = %v outside [%v, %v)", d, lo, hi)
		}
	}
}
