package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
)

// swapHandler lets an httptest server start before its real handler
// exists (the ring needs the server URLs, the router needs the ring).
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// trio is a three-replica router deployment over one shared file store.
type trio struct {
	srvs    [3]*Server
	routers [3]*Router
	https   [3]*httptest.Server
	ring    *shard.Ring
	store   store.Store
}

func newTrio(t *testing.T) *trio {
	t.Helper()
	st, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	tr := &trio{store: st}
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
			MaxDelay: 500 * time.Microsecond,
			Store:    st,
			Self:     self,
			OwnsID:   func(id string) bool { return tr.ring.Owner(id) == self },
			// Slow janitor so the test controls hand-back timing.
			SnapshotInterval: time.Hour,
		}
		srv, err := New(pipe, cfg)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		tr.srvs[i] = srv
		tr.routers[i] = NewRouter(srv, RouterConfig{
			Self: self, Ring: tr.ring, HealthInterval: 50 * time.Millisecond,
		})
		swaps[i].set(tr.routers[i].Handler())
	}
	t.Cleanup(func() {
		for i := range tr.srvs {
			tr.https[i].Close()
			tr.routers[i].Stop()
			tr.srvs[i].Shutdown()
		}
		st.Close()
	})
	return tr
}

func (tr *trio) post(t *testing.T, base, path string, body any) (*http.Response, []byte) {
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

// replicaIdx maps a node URL back to its index.
func (tr *trio) replicaIdx(node string) int {
	for i := range tr.https {
		if tr.https[i].URL == node {
			return i
		}
	}
	return -1
}

// TestRouterOwnershipAndForwarding drives one session's lifecycle through
// the "wrong" replica end to end: creation is local (mint-until-owned),
// every per-session request sent to a non-owner is forwarded to the
// owner, and the non-owner never materialises the session locally.
func TestRouterOwnershipAndForwarding(t *testing.T) {
	tr := newTrio(t)
	_, users := fixture(t)
	u := users[2]

	// Create on replica 0: the minted ID must be owned by replica 0.
	resp, body := tr.post(t, tr.https[0].URL, "/v1/sessions",
		CreateSessionRequest{UserID: u.ID, ExpectedWindows: len(u.Maps)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	if owner := tr.ring.Owner(cr.ID); owner != tr.https[0].URL {
		t.Fatalf("minted ID %s owned by %s, not its creator", cr.ID, owner)
	}

	// Stream the lifecycle through replica 1 — every request forwards.
	other := tr.https[1].URL
	base := "/v1/sessions/" + cr.ID
	for i, lm := range u.Maps {
		resp, body := tr.post(t, other, base+"/windows", WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded window %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body = tr.post(t, other, base+"/labels",
		map[string]map[int]int{"labels": {0: int(u.Maps[0].Label)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded labels: %d %s", resp.StatusCode, body)
	}

	// The owner holds the session; the forwarding replica does not.
	if _, err := tr.srvs[0].Session(cr.ID); err != nil {
		t.Fatalf("owner lost the session: %v", err)
	}
	tr.srvs[1].mu.RLock()
	_, local := tr.srvs[1].sessions[cr.ID]
	tr.srvs[1].mu.RUnlock()
	if local {
		t.Fatal("forwarding replica materialised a session it does not own")
	}
	if st := tr.routers[1].stats(); st.Forwards == 0 {
		t.Fatal("replica 1 reports zero forwards")
	}
}

// TestRouterFailoverHydration kills a session's owner mid-lifecycle and
// checks the surviving replicas keep serving it: the next request fails
// over to a live node, which hydrates the session from the shared store
// with its windows and labels intact — nothing the client was told we
// accepted is lost.
func TestRouterFailoverHydration(t *testing.T) {
	tr := newTrio(t)
	_, users := fixture(t)
	u := users[3]

	resp, body := tr.post(t, tr.https[0].URL, "/v1/sessions",
		CreateSessionRequest{UserID: u.ID, ExpectedWindows: len(u.Maps)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	base := "/v1/sessions/" + cr.ID

	// Half the windows land on the owner (via a peer, for good measure).
	half := len(u.Maps) / 2
	for i := 0; i < half; i++ {
		lm := u.Maps[i]
		resp, body := tr.post(t, tr.https[2].URL, base+"/windows", WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// Kill the owner. Shutdown flushes its registry to the shared store
	// (write-through already persisted each accepted window anyway).
	tr.https[0].Close()
	tr.srvs[0].Shutdown()

	// Requests through a survivor must keep working: the forward fails,
	// the router fails over, and the failover owner hydrates from the
	// store resuming at the exact window count the client had reached.
	var wr WindowResponse
	for i := half; i < len(u.Maps); i++ {
		lm := u.Maps[i]
		resp, body := tr.post(t, tr.https[1].URL, base+"/windows", WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-failover window %d: %d %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatalf("window response: %v", err)
		}
		if wr.Windows != i+1 {
			t.Fatalf("window count %d after failover, want %d (state lost in handoff)", wr.Windows, i+1)
		}
	}

	// The session now lives on whichever survivor the ring failed over
	// to, hydrated (not restarted): cumulative count preserved.
	failover := tr.ring.OwnerExcluding(cr.ID, map[string]bool{tr.https[0].URL: true})
	idx := tr.replicaIdx(failover)
	if idx <= 0 {
		t.Fatalf("failover owner %q not a survivor", failover)
	}
	sess, err := tr.srvs[idx].Session(cr.ID)
	if err != nil {
		t.Fatalf("failover replica %d has no session: %v", idx, err)
	}
	if st := sess.Status(); st.Windows != len(u.Maps) {
		t.Fatalf("hydrated session windows = %d, want %d", st.Windows, len(u.Maps))
	}
}

// TestPeerCall pins the one inter-replica request path: every call kind
// carries its kind header and the caller's traceparent (the view pull
// included), a non-200 answer is an error whose body is drained so the
// keep-alive connection is reused, an oversize body is cut at peerBodyCap
// rather than read to the end, and the per-attempt deadline fails a peer
// that does not answer.
func TestPeerCall(t *testing.T) {
	const self = "http://self"
	var mu sync.Mutex
	var lastHdr http.Header
	var lastConn, lastPath string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lastHdr, lastConn, lastPath = r.Header.Clone(), r.RemoteAddr, r.URL.Path
		mu.Unlock()
		switch r.URL.Path {
		case "/slow":
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		case "/refuse":
			w.WriteHeader(http.StatusTeapot)
			_, _ = w.Write(bytes.Repeat([]byte("x"), 64<<10))
		case "/huge":
			_, _ = w.Write([]byte(`{"hash":"` + strings.Repeat("x", peerBodyCap) + `"}`))
		default:
			writeJSON(w, http.StatusOK, membershipView{Epoch: 1, Members: []string{self}})
		}
	}))
	defer peer.Close()
	seen := func() (http.Header, string, string) {
		mu.Lock()
		defer mu.Unlock()
		return lastHdr, lastConn, lastPath
	}

	// A one-member ring: the janitor has no peer to probe, so every request
	// the test peer sees is one the test made.
	rt := NewRouter(newTestServer(t, Config{}), RouterConfig{
		Self: self, Ring: shard.New([]string{self}, 0), ForwardAttemptTimeout: 200 * time.Millisecond,
	})
	defer rt.Stop()
	tr := obs.NewTrace("test.peercall")
	ctx := obs.WithTrace(context.Background(), tr)

	cases := []struct {
		name       string
		rq         peerReq
		wantStatus int
		wantErr    bool
		wantReuse  bool // served on the previous case's connection
		check      func(t *testing.T, err error, out membershipView)
	}{
		{name: "federated get decodes", wantStatus: 200,
			rq: peerReq{kind: kindFederated, method: http.MethodGet, path: "/v1/membership"},
			check: func(t *testing.T, _ error, out membershipView) {
				if out.Epoch != 1 || len(out.Members) != 1 {
					t.Errorf("decoded %+v", out)
				}
			}},
		{name: "non-200 is an error", wantStatus: http.StatusTeapot, wantErr: true, wantReuse: true,
			rq: peerReq{kind: kindFederated, method: http.MethodGet, path: "/refuse"}},
		{name: "forward after a drained refusal", wantStatus: 200, wantReuse: true,
			rq: peerReq{kind: kindForward, method: http.MethodPost, path: "/v1/rehydrate", body: []byte(`{"id":"s1"}`)}},
		{name: "oversize body is bounded", wantStatus: 200, wantErr: true,
			rq: peerReq{kind: kindFederated, method: http.MethodGet, path: "/huge"}},
		{name: "attempt deadline", wantErr: true,
			rq: peerReq{kind: kindFederated, method: http.MethodGet, path: "/slow"},
			check: func(t *testing.T, err error, _ membershipView) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, want the attempt deadline", err)
				}
			}},
	}
	prevConn := ""
	for _, tc := range cases {
		var out membershipView
		tc.rq.out = &out
		status, err := rt.peerCall(ctx, peer.URL, tc.rq)
		if status != tc.wantStatus || (err != nil) != tc.wantErr {
			t.Errorf("%s: peerCall = (%d, %v), want status %d, error %v", tc.name, status, err, tc.wantStatus, tc.wantErr)
		}
		hdr, conn, _ := seen()
		if hdr.Get(string(tc.rq.kind)) != self || hdr.Get("traceparent") != tr.Traceparent() {
			t.Errorf("%s: peer saw kind header %q, traceparent %q", tc.name, hdr.Get(string(tc.rq.kind)), hdr.Get("traceparent"))
		}
		if (tc.rq.kind == kindForward) != (hdr.Get(epochHeader) != "") {
			t.Errorf("%s: epoch header %q on kind %s", tc.name, hdr.Get(epochHeader), tc.rq.kind)
		}
		if tc.wantReuse && conn != prevConn {
			t.Errorf("%s: served on a new connection %s, want %s reused", tc.name, conn, prevConn)
		}
		if tc.check != nil {
			tc.check(t, err, out)
		}
		prevConn = conn
	}

	// The view pull goes through the same path under its own rpc trace.
	rt.pullViewFrom(peer.URL)
	hdr, _, path := seen()
	if path != "/v1/membership" || hdr.Get(federationHeader) != self {
		t.Fatalf("view pull: peer saw %s with federation header %q", path, hdr.Get(federationHeader))
	}
	if _, _, ok := obs.ParseTraceparent(hdr.Get("traceparent")); !ok {
		t.Fatalf("view pull carried no traceparent: %q", hdr.Get("traceparent"))
	}
}
