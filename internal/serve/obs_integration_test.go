package serve

// Observability acceptance suite: W3C traceparent round-trip on the HTTP
// surface, trace-id resolution for error responses via /v1/traces, and
// flight-recorder reconstruction of the two incidents the recorder exists
// for — a detector re-assignment and a breaker open→half-open→close cycle.
// Run with -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wemac"
)

// TestMain quiets the structured log for the whole package run: hundreds
// of lifecycle events at Info would drown the test output. Set
// SERVE_TEST_LOG=debug to get the full stream back when debugging.
func TestMain(m *testing.M) {
	if lvl := os.Getenv("SERVE_TEST_LOG"); lvl != "" {
		obs.SetLogLevel(obs.ParseLogLevel(lvl))
	} else {
		obs.SetLogLevel(slog.LevelError)
	}
	os.Exit(m.Run())
}

// eventKinds flattens a session's flight timeline for order assertions.
func eventKinds(evs []FlightEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

// firstEvent returns the first event of the given kind, or nil.
func firstEvent(evs []FlightEvent, kind string) *FlightEvent {
	for i := range evs {
		if evs[i].Kind == kind {
			return &evs[i]
		}
	}
	return nil
}

// kindIndex returns the index of the first event of kind at or after from,
// or -1.
func kindIndex(evs []FlightEvent, kind string, from int) int {
	for i := from; i < len(evs); i++ {
		if evs[i].Kind == kind {
			return i
		}
	}
	return -1
}

// TestHTTPTraceRoundTrip sends a client traceparent through every endpoint
// class and asserts the contract the loadgen's -tracesample enforces in
// production: the 128-bit id is adopted and echoed, X-Trace-Id carries the
// short form, error bodies embed a trace_id, and every error trace is
// resolvable through /v1/traces/<id>. It runs over the lone Server's
// handler and over a one-member Router's, which must serve the Server's
// routes unchanged: the router adds /v1/fleet and nothing it passes
// through may differ.
func TestHTTPTraceRoundTrip(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond})
		testHTTPRoundTrip(t, srv.Handler(), false)
	})
	t.Run("router", func(t *testing.T) {
		srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond})
		self := srv.cfg.Self
		rt := NewRouter(srv, RouterConfig{Self: self, Ring: shard.New([]string{self}, 0)})
		t.Cleanup(rt.Stop)
		testHTTPRoundTrip(t, rt.Handler(), true)
	})
}

func testHTTPRoundTrip(t *testing.T, h http.Handler, ringMode bool) {
	_, users := fixture(t)
	hs := httptest.NewServer(h)
	defer hs.Close()
	u := users[0]

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + tid + "-00f067aa0ba902b7-01"
	short := tid[16:]

	do := func(method, path string, body any) (*http.Response, []byte) {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			js, err := json.Marshal(body)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			rd = bytes.NewReader(js)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		req.Header.Set("traceparent", parent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if got := resp.Header.Values(nodeHeader); len(got) != 1 {
			t.Fatalf("%s %s: %s = %q, want exactly one value", method, path, nodeHeader, got)
		}
		return resp, buf.Bytes()
	}

	// Success path: creation must echo the caller's trace id, not mint one.
	resp, body := do("POST", "/v1/sessions", CreateSessionRequest{UserID: u.ID, ExpectedWindows: len(u.Maps)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, tid) {
		t.Fatalf("response traceparent %q does not echo the caller's id %s", tp, tid)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != short {
		t.Fatalf("X-Trace-Id = %q, want short id %q", got, short)
	}

	// Error paths: each non-2xx body must carry the trace id, and the trace
	// must be held by the store (errors bypass tail sampling).
	errCases := []struct {
		name, method, path string
		body               any
		wantCode           int
	}{
		{"unknown session", "GET", "/v1/sessions/zzz", nil, http.StatusNotFound},
		{"empty window", "POST", "/v1/sessions/zzz/windows", WindowPayload{}, http.StatusNotFound},
		{"unknown trace", "GET", "/v1/traces/ffffffffffffffff", nil, http.StatusNotFound},
	}
	for _, tc := range errCases {
		resp, body := do(tc.method, tc.path, tc.body)
		if resp.StatusCode != tc.wantCode {
			t.Fatalf("%s: %d %s, want %d", tc.name, resp.StatusCode, body, tc.wantCode)
		}
		var eb struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.TraceID != short {
			t.Fatalf("%s: error body %s carries trace_id %q (err %v), want %q",
				tc.name, body, eb.TraceID, err, short)
		}
		lresp, lbody := do("GET", "/v1/traces/"+eb.TraceID, nil)
		if lresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: trace %s not resolvable: %d %s", tc.name, eb.TraceID, lresp.StatusCode, lbody)
		}
		var snap struct {
			TraceID string `json:"trace_id"`
			Error   bool   `json:"error"`
		}
		if err := json.Unmarshal(lbody, &snap); err != nil {
			t.Fatalf("%s: trace snapshot decode: %v", tc.name, err)
		}
		if !snap.Error || !strings.HasSuffix(snap.TraceID, short) {
			t.Fatalf("%s: trace snapshot %s not a marked-error trace for %s", tc.name, lbody, short)
		}
	}

	// A request without a traceparent still gets a server-minted id back.
	nresp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	nresp.Body.Close()
	if nresp.Header.Get("X-Trace-Id") == "" || nresp.Header.Get("traceparent") == "" {
		t.Fatal("untraced request got no server-minted trace id")
	}

	// The rest of the route table answers alike through both handlers;
	// only /v1/fleet is router-only.
	fleetCode := http.StatusNotFound
	if ringMode {
		fleetCode = http.StatusOK
	}
	routes := []struct {
		method, path string
		wantCode     int
		wantType     string // Content-Type prefix; "" skips the check
	}{
		{"GET", "/v1/slo", http.StatusOK, "application/json"},
		{"GET", "/v1/events", http.StatusOK, "application/json"},
		{"GET", "/healthz", http.StatusOK, "application/json"},
		{"GET", "/metrics", http.StatusOK, "text/plain"},
		{"GET", "/debug/vars", http.StatusNotFound, ""},
		{"POST", "/v1/chaos", http.StatusForbidden, "application/json"},
		{"GET", "/v1/fleet", fleetCode, ""},
	}
	for _, rc := range routes {
		resp, body := do(rc.method, rc.path, nil)
		if resp.StatusCode != rc.wantCode {
			t.Fatalf("%s %s: %d %s, want %d", rc.method, rc.path, resp.StatusCode, body, rc.wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, rc.wantType) {
			t.Fatalf("%s %s: Content-Type %q, want %s", rc.method, rc.path, ct, rc.wantType)
		}
		if rc.path == "/healthz" {
			var hz HealthzResponse
			if err := json.Unmarshal(body, &hz); err != nil {
				t.Fatalf("healthz decode: %v", err)
			}
			if ringMode != (hz.Epoch >= 1) {
				t.Fatalf("healthz epoch = %d in ring mode %v", hz.Epoch, ringMode)
			}
		}
	}
}

// TestFlightRecorderDriftReassignment forces a detector re-assignment and
// reconstructs the whole incident from the events array in the session's
// status JSON alone: created → assigned → drift verdict → reassigned, with
// strictly increasing sequence numbers and the swap's from/to clusters in
// the detail.
func TestFlightRecorderDriftReassignment(t *testing.T) {
	ua, ub, ka, kb := twoClusterUsers(t)
	srv := newTestServer(t, driftCfg())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	sess, err := srv.CreateSession(ua.ID, len(ua.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	n := wemac.BudgetWindows(len(ua.Maps), 0.1)
	for i := 0; i < n; i++ {
		if _, err := sess.PushWindow(ua.Maps[i].Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
	}
	if got := streamUntilReassign(t, sess, ub, 40); got != 1 {
		t.Fatalf("observed %d re-assignments, want 1", got)
	}

	// Reconstruct from the public surface only.
	resp, err := http.Get(hs.URL + "/v1/sessions/" + sess.ID())
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	var st SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	resp.Body.Close()
	if len(st.Events) == 0 {
		t.Fatal("status JSON carries no flight events")
	}
	for i := 1; i < len(st.Events); i++ {
		if st.Events[i].Seq <= st.Events[i-1].Seq {
			t.Fatalf("flight seq not strictly increasing: %d then %d",
				st.Events[i-1].Seq, st.Events[i].Seq)
		}
	}

	iCreated := kindIndex(st.Events, evCreated, 0)
	iAssigned := kindIndex(st.Events, evAssigned, 0)
	iVerdict := kindIndex(st.Events, evDriftVerdict, 0)
	iReassigned := kindIndex(st.Events, evReassigned, 0)
	if iCreated < 0 || iAssigned < 0 || iVerdict < 0 || iReassigned < 0 {
		t.Fatalf("incomplete incident timeline %v", eventKinds(st.Events))
	}
	if !(iCreated < iAssigned && iAssigned < iVerdict && iVerdict < iReassigned) {
		t.Fatalf("incident out of order: %v", eventKinds(st.Events))
	}
	asg := st.Events[iAssigned]
	if !strings.Contains(asg.Detail, fmt.Sprintf("cluster=%d", ka)) {
		t.Fatalf("assigned detail %q does not name cluster %d", asg.Detail, ka)
	}
	re := st.Events[iReassigned]
	if !strings.Contains(re.Detail, fmt.Sprintf("from=%d", ka)) ||
		!strings.Contains(re.Detail, fmt.Sprintf("to=%d", kb)) {
		t.Fatalf("reassigned detail %q does not record the %d→%d swap", re.Detail, ka, kb)
	}
}

// TestFlightRecorderBreakerCycle drives a cluster's breaker through
// open→half-open→close under injected build failures and checks the cycle
// is fully reconstructible from the session's flight events: the fine-tune
// attempts, the giveup, and each breaker state transition in order.
func TestFlightRecorderBreakerCycle(t *testing.T) {
	inj := fault.New(11).Enable(fault.ModelBuild, 1)
	srv := newTestServer(t, Config{
		FineTuneRetries:  2,
		FineTuneBackoff:  time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  80 * time.Millisecond,
		Fault:            inj,
	})
	_, users := fixture(t)
	u := users[0]

	sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i, lm := range u.Maps[:len(u.Maps)/2] {
		if _, err := sess.PushWindow(lm.Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
	}
	labels := map[int]int{}
	for j := 0; j < len(u.Maps)/2; j++ {
		labels[j] = int(u.Maps[j].Label)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), labels); err != nil {
		t.Fatalf("PushLabelsCtx: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !sess.Status().Degraded {
		time.Sleep(2 * time.Millisecond)
	}
	if !sess.Status().Degraded {
		t.Fatal("session never entered degraded mode under guaranteed build failure")
	}

	// Heal the fault and stream until the half-open probe re-personalises.
	inj.Enable(fault.ModelBuild, 0)
	time.Sleep(100 * time.Millisecond)
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := sess.PushWindow(u.Maps[len(u.Maps)/2].Map); err != nil {
			t.Fatalf("recovery PushWindow: %v", err)
		}
		if st := sess.Status(); st.Personalized && !st.Degraded {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := sess.Status(); !st.Personalized || st.Degraded {
		t.Fatalf("session did not recover: personalized=%v degraded=%v", st.Personalized, st.Degraded)
	}

	evs := sess.Status().Events
	if firstEvent(evs, evFTAttempt) == nil || firstEvent(evs, evFTFailed) == nil {
		t.Fatalf("fine-tune attempts/failure not recorded: %v", eventKinds(evs))
	}
	if firstEvent(evs, evFTOK) == nil {
		t.Fatalf("recovery fine-tune not recorded: %v", eventKinds(evs))
	}

	// The breaker's full cycle, in order, from this one session's timeline.
	wantTransitions := []string{"closed→open", "open→half-open", "half-open→closed"}
	at := 0
	for _, want := range wantTransitions {
		found := -1
		for i := at; i < len(evs); i++ {
			if evs[i].Kind == evBreaker && strings.Contains(evs[i].Detail, want) {
				found = i
				break
			}
		}
		if found < 0 {
			var seen []string
			for _, ev := range evs {
				if ev.Kind == evBreaker {
					seen = append(seen, ev.Detail)
				}
			}
			t.Fatalf("breaker transition %q not found at/after event %d; breaker events: %v", want, at, seen)
		}
		at = found + 1
	}
}

// TestFlightEventsSurviveSnapshotRestore snapshots a mid-lifecycle session
// and restores it into a fresh server: the pre-crash timeline must come
// back verbatim, the restore itself must be recorded, and sequence
// numbering must continue rather than restart.
func TestFlightEventsSurviveSnapshotRestore(t *testing.T) {
	st := store.NewMem()
	srvA := newTestServer(t, Config{Store: st})
	_, users := fixture(t)
	u := users[3]
	sess, err := srvA.CreateSession(u.ID, len(u.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.PushWindow(u.Maps[i].Map); err != nil {
			t.Fatalf("PushWindow: %v", err)
		}
	}
	before := sess.Status().Events
	if firstEvent(before, evCreated) == nil {
		t.Fatalf("pre-snapshot timeline has no created event: %v", eventKinds(before))
	}
	maxSeq := before[len(before)-1].Seq

	srvA.FlushAll(context.Background())
	srvB := newTestServer(t, Config{Store: st})
	if n, err := srvB.RestoreAll(context.Background(), nil); err != nil || n != 1 {
		t.Fatalf("RestoreAll = (%d, %v), want (1, nil)", n, err)
	}
	rs, err := srvB.Session(sess.ID())
	if err != nil {
		t.Fatalf("restored session: %v", err)
	}
	after := rs.Status().Events
	for i, ev := range before {
		if i >= len(after) || after[i] != ev {
			t.Fatalf("pre-crash event %d not preserved: before %+v, after %v", i, ev, after)
		}
	}
	restored := firstEvent(after, evRestored)
	if restored == nil {
		t.Fatalf("restore not recorded in timeline: %v", eventKinds(after))
	}
	if restored.Seq <= maxSeq {
		t.Fatalf("restored event seq %d does not continue pre-crash numbering (max %d)", restored.Seq, maxSeq)
	}
}
