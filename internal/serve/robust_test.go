package serve

// Robustness suite: circuit breaker semantics, fine-tune retry/backoff and
// degraded-mode recovery, window sanitisation, inference deadlines, the
// typed-error → HTTP status table, session snapshot/restore, and the
// Shutdown-vs-lifecycle race (run with -race).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wemac"
)

// TestBreakerStateMachine walks the breaker through its full cycle on a
// fake clock: consecutive failures open it, the cooldown admits a single
// half-open probe, a failed probe re-opens, a successful probe closes.
// Release gives a grant back with no outcome, in either state.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second)
	b.now = func() time.Time { return now }

	fail := errors.New("boom")
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Done(fail)
	b.Allow()
	b.Done(nil) // success resets the consecutive count
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Done(fail)
	}
	b.Allow()
	b.Release() // neither a failure nor a success: the count stays at 2
	if b.State() != BreakerClosed {
		t.Fatalf("2 consecutive failures after reset opened a threshold-3 breaker (state %v)", b.State())
	}
	b.Allow()
	b.Done(fail)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3rd consecutive failure = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker granted a build")
	}

	now = now.Add(11 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker granted a second concurrent probe")
	}
	b.Done(fail) // failed probe → re-open, cooldown restarts
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("second half-open probe refused")
	}
	b.Release() // the probe ended with no outcome: its slot frees
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after a released probe = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused a probe after Release")
	}
	b.Done(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused")
	}
	b.Done(nil)
}

// TestFineTuneRetryBreakerAndRecovery drives the whole degraded-mode loop
// end to end: injected build failures exhaust the retries and trip the
// cluster's breaker, the session is visibly served from the baseline
// (degraded in results, status, HTTP JSON, and Stats), and once the fault
// heals the half-open probe re-personalises the session and re-closes the
// breaker.
func TestFineTuneRetryBreakerAndRecovery(t *testing.T) {
	retriesBefore, giveupsBefore := mFTRetries.Value(), mFTGiveups.Value()
	inj := fault.New(11).Enable(fault.ModelBuild, 1) // every build fails
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
	var cluster int
	for i, lm := range u.Maps[:len(u.Maps)/2] {
		res, err := sess.PushWindow(lm.Map)
		if err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		if res.Assignment != nil {
			cluster = res.Assignment.Cluster
		}
	}
	labels := map[int]int{}
	for j := 0; j < len(u.Maps)/2; j++ {
		labels[j] = int(u.Maps[j].Label)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), labels); err != nil {
		t.Fatalf("PushLabelsCtx: %v", err)
	}

	// The job fails twice (threshold 2 → breaker opens mid-job), gives up,
	// and the session lands in degraded mode.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !sess.Status().Degraded {
		time.Sleep(2 * time.Millisecond)
	}
	if !sess.Status().Degraded {
		t.Fatal("session never entered degraded mode under guaranteed build failure")
	}
	if st := srv.BreakerFor(cluster).State(); st != BreakerOpen && st != BreakerHalfOpen {
		t.Fatalf("cluster %d breaker = %v, want open (or half-open after cooldown)", cluster, st)
	}
	if got := mFTRetries.Value(); got <= retriesBefore {
		t.Error("no fine-tune retries counted")
	}
	if got := mFTGiveups.Value(); got <= giveupsBefore {
		t.Error("no fine-tune giveups counted")
	}

	// Degraded serving is visible on every surface.
	res, err := sess.PushWindow(u.Maps[len(u.Maps)/2].Map)
	if err != nil {
		t.Fatalf("degraded PushWindow: %v", err)
	}
	if !res.Degraded || res.Personalized {
		t.Fatalf("degraded window: Degraded=%v Personalized=%v, want true/false", res.Degraded, res.Personalized)
	}
	if st := sess.Status(); !st.Degraded {
		t.Error("Status().Degraded = false in degraded mode")
	}
	stats := srv.Stats()
	if stats.DegradedSessions != 1 {
		t.Errorf("Stats.DegradedSessions = %d, want 1", stats.DegradedSessions)
	}
	if stats.DegradedInferences == 0 {
		t.Error("Stats.DegradedInferences = 0 after a degraded window")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+sess.ID(), nil))
	var js struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || !js.Degraded {
		t.Errorf("HTTP status JSON degraded=%v err=%v, want true", js.Degraded, err)
	}

	// Heal the fault; after the cooldown the next window's opportunistic
	// trigger becomes the half-open probe, which succeeds and recovers
	// both the session and the breaker.
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
	st := sess.Status()
	if !st.Personalized || st.Degraded {
		t.Fatalf("session did not recover: personalized=%v degraded=%v", st.Personalized, st.Degraded)
	}
	if bst := srv.BreakerFor(cluster).State(); bst != BreakerClosed {
		t.Fatalf("breaker did not re-close after successful probe: %v", bst)
	}
	res, err = sess.PushWindow(u.Maps[len(u.Maps)/2+1].Map)
	if err != nil {
		t.Fatalf("post-recovery PushWindow: %v", err)
	}
	if !res.Personalized || res.Degraded {
		t.Fatalf("post-recovery window: Personalized=%v Degraded=%v", res.Personalized, res.Degraded)
	}
}

// TestClosedSessionFineTuneLeavesBreakerClosed queues a fine-tune for a
// session and closes the session before the one worker reaches the job.
// The job has nothing left to train on; it must end without counting
// against the cluster's breaker, so the cluster's other sessions keep
// personalising.
func TestClosedSessionFineTuneLeavesBreakerClosed(t *testing.T) {
	srv := newTestServer(t, Config{FineTuneWorkers: 1, FineTuneBackoff: time.Millisecond})
	_, users := fixture(t)
	u := users[0]
	n := wemac.BudgetWindows(len(u.Maps), 0.1)
	labels := map[int]int{}
	for j := 0; j < n; j++ {
		labels[j] = int(u.Maps[j].Label)
	}
	// assigned streams u's unlabeled budget into a new session. Every
	// session of one user lands on the same cluster.
	assigned := func() (*Session, int) {
		t.Helper()
		sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.1)
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		k := -1
		for i := 0; i < n; i++ {
			res, err := sess.PushWindow(u.Maps[i].Map)
			if err != nil {
				t.Fatalf("PushWindow %d: %v", i, err)
			}
			if res.Assignment != nil {
				k = res.Assignment.Cluster
			}
		}
		if k < 0 {
			t.Fatalf("session %s not assigned after %d windows", sess.ID(), n)
		}
		return sess, k
	}
	busy, k := assigned()
	closing, _ := assigned()
	after, _ := assigned()
	ctx := context.Background()

	// busy's job goes first, and the worker blocks on busy's lock (held
	// here) until the other two jobs are queued and closing is closed.
	busy.mu.Lock()
	for idx, y := range labels {
		busy.labels[idx] = y
	}
	queued, err := busy.tryFineTuneLocked(ctx)
	if !queued || err != nil {
		busy.mu.Unlock()
		t.Fatalf("busy session's fine-tune: queued=%v err=%v", queued, err)
	}
	for _, sess := range []*Session{closing, after} {
		lr, err := sess.PushLabelsCtx(ctx, labels)
		if err != nil || !lr.FineTuneQueued {
			busy.mu.Unlock()
			t.Fatalf("session %s fine-tune: queued=%v err=%v", sess.ID(), lr.FineTuneQueued, err)
		}
		if sess == closing {
			if err := srv.CloseSession(closing.ID()); err != nil {
				busy.mu.Unlock()
				t.Fatalf("CloseSession: %v", err)
			}
		}
	}
	busy.mu.Unlock()

	// The worker runs the jobs in order, so once after's job is done the
	// closed session's job has run too.
	deadline := time.Now().Add(60 * time.Second)
	for {
		after.mu.Lock()
		inFlight := after.ftInFlight
		after.mu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fine-tune queue never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.BreakerFor(k).State(); st != BreakerClosed {
		t.Fatalf("cluster %d breaker = %v after a closed session's job, want closed", k, st)
	}
	if st := after.Status(); !st.Personalized || st.Degraded {
		t.Errorf("session queued behind the closed one: personalized=%v degraded=%v, want true/false",
			st.Personalized, st.Degraded)
	}
	fresh, _ := assigned()
	lr, err := fresh.PushLabelsCtx(ctx, labels)
	if err != nil || !lr.FineTuneQueued {
		t.Fatalf("new session on cluster %d: FineTuneQueued=%v err=%v, want true", k, lr.FineTuneQueued, err)
	}
}

// TestSanitizeImputesFromHistory pushes damaged windows at an enrolling
// session that has history: scattered NaN cells and a dead sensor channel
// must both be repaired cell-wise, and the stored maps must be finite.
func TestSanitizeImputesFromHistory(t *testing.T) {
	srv := newTestServer(t, Config{})
	_, users := fixture(t)
	u := users[1]
	sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.9) // stay enrolling
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.PushWindow(u.Maps[i].Map); err != nil {
			t.Fatalf("clean PushWindow %d: %v", i, err)
		}
	}
	for kind, name := range map[int]string{0: "scattered NaN", 1: "dead channel"} {
		res, err := sess.PushWindow(corruptMap(u.Maps[2+kind].Map, kind, kind))
		if err != nil {
			t.Fatalf("%s window rejected despite history: %v", name, err)
		}
		if !res.Imputed {
			t.Errorf("%s window not flagged Imputed", name)
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for i, m := range sess.maps {
		for _, v := range m.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("stored map %d contains non-finite value after sanitisation", i)
			}
		}
	}
}

// TestCorruptWindowRejectedWithoutHistory: the very first window of a
// session has nothing to impute from — the typed rejection must surface.
func TestCorruptWindowRejectedWithoutHistory(t *testing.T) {
	srv := newTestServer(t, Config{})
	_, users := fixture(t)
	u := users[2]
	sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	_, err = sess.PushWindow(corruptMap(u.Maps[0].Map, 0, 0))
	if !errors.Is(err, ErrCorruptWindow) {
		t.Fatalf("first corrupt window err = %v, want ErrCorruptWindow", err)
	}
	// The session is not poisoned: the clean copy is accepted afterwards.
	if _, err := sess.PushWindow(u.Maps[0].Map); err != nil {
		t.Fatalf("clean window after rejection: %v", err)
	}
}

// TestExecutorDeadline covers the context path through the executor: an
// injected stall outlasting the caller's deadline yields the typed
// ErrTimeout, and a request whose context is already dead when a dispatch
// round forms is dropped without a pass.
func TestExecutorDeadline(t *testing.T) {
	pipe, users := fixture(t)
	x := pipe.Apply(users[0].Maps[0].Map)
	model := pipe.ModelFor(0)

	inj := fault.New(5).Enable(fault.InferStall, 1).SetStall(300 * time.Millisecond)
	exec := NewExecutor(4, time.Millisecond, 16, 2)
	exec.SetWatchdog(20 * time.Millisecond)
	exec.SetFault(inj)
	defer exec.Close()

	stallsBefore := mExecStalls.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := exec.Submit(ctx, model, x)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled Submit err = %v, want ErrTimeout", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Errorf("caller waited %v, deadline was 30ms — context not honoured", waited)
	}
	// Let the stalled pass finish; the watchdog must have flagged it.
	time.Sleep(400 * time.Millisecond)
	if mExecStalls.Value() <= stallsBefore {
		t.Error("watchdog counted no stalls for a 300ms pass with a 20ms bound")
	}

	// Already-expired requests are dropped from the dispatch round.
	expiredBefore := mExpired.Value()
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := exec.Submit(dead, model, x); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dead-context Submit err = %v, want ErrTimeout", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && mExpired.Value() <= expiredBefore {
		time.Sleep(5 * time.Millisecond)
	}
	if mExpired.Value() <= expiredBefore {
		t.Error("expired queued request was not dropped by the dispatcher")
	}
}

// TestErrorStatusTable maps every typed serve error — wrapped, as handlers
// produce them — to its HTTP status.
func TestErrorStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: queue full", ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("%w: %q", ErrSessionNotFound, "s1"), http.StatusNotFound},
		{fmt.Errorf("%w: %q", ErrSessionClosed, "s1"), http.StatusConflict},
		{fmt.Errorf("%w: bad shape", ErrBadRequest), http.StatusBadRequest},
		{fmt.Errorf("%w: no history", ErrCorruptWindow), http.StatusUnprocessableEntity},
		{ErrShutdown, http.StatusServiceUnavailable},
		{fmt.Errorf("%w: context deadline exceeded", ErrTimeout), http.StatusGatewayTimeout},
		{errors.New("untyped"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, httptest.NewRequest("GET", "/v1/stats", nil), tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("writeError(%v) body %q not a JSON error", tc.err, rec.Body.String())
		}
	}
}

// heldStore blocks the first session put made after armed is set until
// release is closed, so a test can make a put land late, behind a newer
// one.
type heldStore struct {
	store.Store
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *heldStore) hold() {
	if h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
}

func (h *heldStore) PutSession(ctx context.Context, id string, data []byte) error {
	h.hold()
	return h.Store.PutSession(ctx, id, data)
}

func (h *heldStore) PutSessionFenced(ctx context.Context, id string, f store.Fence, data []byte) error {
	h.hold()
	return h.Store.PutSessionFenced(ctx, id, f, data)
}

// TestOverlappingPersistsKeepNewestSnapshot holds one persist of a
// session in the store while a newer persist of the same session lands.
// When the held put finally lands, the stored record must still be the
// newer snapshot: the older one is fenced off rather than rolling the
// record back.
func TestOverlappingPersistsKeepNewestSnapshot(t *testing.T) {
	ctx := context.Background()
	hs := &heldStore{Store: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	srv := newTestServer(t, Config{Store: hs, Self: "a", SnapshotInterval: time.Hour})
	_, users := fixture(t)
	u := users[0]
	sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

	hs.armed.Store(true)
	held := make(chan error, 1)
	go func() { held <- srv.persistSession(ctx, sess) }() // snapshot: pushed=0
	<-hs.entered
	if _, err := sess.PushWindow(u.Maps[0].Map); err != nil { // persists pushed=1
		t.Fatalf("PushWindow: %v", err)
	}
	close(hs.release)
	if err := <-held; err != nil && !errors.Is(err, store.ErrFenced) {
		t.Fatalf("held persist: %v", err)
	}

	data, err := hs.GetSession(ctx, sess.ID())
	if err != nil {
		t.Fatalf("GetSession: %v", err)
	}
	hdr, _, err := decodeSessionRec(data)
	if err != nil {
		t.Fatalf("decodeSessionRec: %v", err)
	}
	if hdr.Rec.Pushed != 1 {
		t.Fatalf("stored record has pushed=%d, want 1: the held older snapshot rolled it back", hdr.Rec.Pushed)
	}
}

// TestRinglessRestoreKeepsPersisting writes a session through a ring at
// epoch 3, then boots a ringless server over the same store. Its persists
// of the restored session must land: were they fenced at epoch 0, the
// store would reject every one and the session would silently stop being
// durable.
func TestRinglessRestoreKeepsPersisting(t *testing.T) {
	ctx := context.Background()
	st := store.NewMem()
	_, users := fixture(t)
	u := users[0]

	srvA := newTestServer(t, Config{Store: st, Self: "a", SnapshotInterval: time.Hour})
	memb := shard.NewMembership([]string{"a"}, 0)
	memb.Adopt(3, []string{"a"})
	rt := NewRouter(srvA, RouterConfig{Self: "a", Membership: memb})
	defer rt.Stop()
	sessA, err := srvA.CreateSession(u.ID, len(u.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := sessA.PushWindow(u.Maps[0].Map); err != nil {
		t.Fatalf("PushWindow on the ring: %v", err)
	}

	srvB := newTestServer(t, Config{Store: st, Self: "b", SnapshotInterval: time.Hour})
	if n, err := srvB.RestoreAll(ctx, nil); err != nil || n != 1 {
		t.Fatalf("RestoreAll = %d, %v; want 1 session", n, err)
	}
	sessB, err := srvB.Session(sessA.ID())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if _, err := sessB.PushWindow(u.Maps[1].Map); err != nil {
		t.Fatalf("PushWindow after the ringless restore: %v", err)
	}

	data, err := st.GetSession(ctx, sessA.ID())
	if err != nil {
		t.Fatalf("GetSession: %v", err)
	}
	hdr, _, err := decodeSessionRec(data)
	if err != nil {
		t.Fatalf("decodeSessionRec: %v", err)
	}
	if hdr.Rec.Pushed != 2 {
		t.Fatalf("stored record has pushed=%d, want 2: the ringless persist was fenced off", hdr.Rec.Pushed)
	}
}

// TestSnapshotRestoreRoundTrip persists a registry holding sessions at
// different lifecycle positions and restores it into a fresh server: the
// enrolment state machine, the cold-start assignment, the label budget,
// and the retained maps must survive bitwise; a post-assignment session
// comes back personalised — from its persisted checkpoint, or by replaying
// its labels when the crash beat the checkpoint to the store.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := store.NewMem()
	srvA := newTestServer(t, Config{Store: st, Self: "a"})
	_, users := fixture(t)

	// sEnrol: mid-enrolment. sMon: fully personalised and monitoring.
	uE, uM := users[3], users[4]
	sEnrol, err := srvA.CreateSession(uE.ID, len(uE.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sEnrol.PushWindow(uE.Maps[i].Map); err != nil {
			t.Fatalf("PushWindow: %v", err)
		}
	}
	sMon, err := srvA.CreateSession(uM.ID, len(uM.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i, lm := range uM.Maps {
		if _, err := sMon.PushWindow(lm.Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		if i == len(uM.Maps)/2 {
			labels := map[int]int{}
			for j := 0; j <= i; j++ {
				labels[j] = int(uM.Maps[j].Label)
			}
			if _, err := sMon.PushLabelsCtx(context.Background(), labels); err != nil {
				t.Fatalf("PushLabelsCtx: %v", err)
			}
			waitState(t, sMon, StateMonitoring)
		}
	}

	if n := srvA.FlushAll(ctx); n != 2 {
		t.Fatalf("FlushAll = %d, want 2", n)
	}
	// One garbage record in the store must not take the boot restore out.
	if err := st.PutSession(ctx, "s999999", []byte("not a session record at all")); err != nil {
		t.Fatalf("PutSession: %v", err)
	}

	srvB := newTestServer(t, Config{Store: st, Self: "b"})
	n, err := srvB.RestoreAll(ctx, nil)
	if err != nil || n != 2 {
		t.Fatalf("RestoreAll = (%d, %v), want (2, nil)", n, err)
	}

	// Enrolling session: byte-exact continuation.
	rE, err := srvB.Session(sEnrol.ID())
	if err != nil {
		t.Fatalf("restored enrolling session: %v", err)
	}
	rE.mu.Lock()
	if rE.state != StateEnrolling || rE.pushed != 2 || len(rE.maps) != 2 ||
		rE.expected != sEnrol.expected || rE.assignAt != sEnrol.assignAt {
		t.Fatalf("enrolling session state drifted: %+v", rE.Status())
	}
	for i, m := range rE.maps {
		for j, v := range m.Data {
			if v != sEnrol.maps[i].Data[j] {
				t.Fatalf("map %d cell %d not bitwise equal after round-trip", i, j)
			}
		}
	}
	rE.mu.Unlock()
	if st := rE.Status(); !st.Restored {
		t.Error("restored session not flagged Restored")
	}

	// Monitored session: assignment and labels intact, personalised again
	// (checkpoint reloaded, or labels replayed).
	rM, err := srvB.Session(sMon.ID())
	if err != nil {
		t.Fatalf("restored monitored session: %v", err)
	}
	origStatus, gotStatus := sMon.Status(), rM.Status()
	if gotStatus.Cluster != origStatus.Cluster {
		t.Fatalf("cluster %d != %d after restore", gotStatus.Cluster, origStatus.Cluster)
	}
	for i, s := range origStatus.Scores {
		if gotStatus.Scores[i] != s {
			t.Fatalf("assignment score %d not bitwise equal", i)
		}
	}
	if gotStatus.Labeled != origStatus.Labeled {
		t.Fatalf("label budget %d != %d after restore", gotStatus.Labeled, origStatus.Labeled)
	}
	waitState(t, rM, StateMonitoring)
	if st := rM.Status(); !st.Personalized {
		t.Error("restored session did not come back personalised")
	}

	// The restored sequence counter cannot collide with the old IDs.
	fresh, err := srvB.CreateSession(99, 4, 0.5)
	if err != nil {
		t.Fatalf("CreateSession after restore: %v", err)
	}
	if fresh.ID() == sEnrol.ID() || fresh.ID() == sMon.ID() {
		t.Fatalf("new session reused a restored ID %s", fresh.ID())
	}

	// Corrupt record → typed error, on the decoder and on the hydrate path.
	if _, _, err := decodeSessionRec([]byte("not a session record at all")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage decodeSessionRec err = %v, want ErrBadSnapshot", err)
	}
	if _, err := srvB.SessionCtx(ctx, "s999999"); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage hydrate err = %v, want ErrBadSnapshot", err)
	}
}

// TestStoreFlushAndRestoreAll exercises the store-backed persistence path
// that replaced the direct snapshot file: create/push write through to
// the store, FlushAll persists the registry wholesale, and a second
// server hydrates via RestoreAll — with the ownership predicate
// filtering, and an empty store booting to an empty registry.
func TestStoreFlushAndRestoreAll(t *testing.T) {
	ctx := context.Background()
	st, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	srvA := newTestServer(t, Config{Store: st, Self: "a"})
	_, users := fixture(t)
	u := users[5]
	sess, err := srvA.CreateSession(u.ID, len(u.Maps), 0.9)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := sess.PushWindow(u.Maps[0].Map); err != nil {
		t.Fatalf("PushWindow: %v", err)
	}
	// Create and push both wrote through already; FlushAll must still
	// cover the whole registry.
	if n := srvA.FlushAll(ctx); n != 1 {
		t.Fatalf("FlushAll = %d, want 1", n)
	}
	if got := st.Stats().Sessions; got != 1 {
		t.Fatalf("store sessions = %d, want 1", got)
	}

	srvB := newTestServer(t, Config{Store: st, Self: "b"})
	if n, err := srvB.RestoreAll(ctx, nil); n != 1 || err != nil {
		t.Fatalf("RestoreAll = (%d, %v), want (1, nil)", n, err)
	}
	r, err := srvB.Session(sess.ID())
	if err != nil {
		t.Fatalf("restored session: %v", err)
	}
	if got := r.Status().Windows; got != 1 {
		t.Fatalf("restored windows = %d, want 1", got)
	}

	// The ownership predicate keeps other replicas' sessions out.
	srvC := newTestServer(t, Config{Store: st, Self: "c"})
	if n, err := srvC.RestoreAll(ctx, func(string) bool { return false }); n != 0 || err != nil {
		t.Fatalf("filtered RestoreAll = (%d, %v), want (0, nil)", n, err)
	}

	// Empty store boots to an empty registry.
	st2, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	srvD := newTestServer(t, Config{Store: st2})
	if n, err := srvD.RestoreAll(ctx, nil); n != 0 || err != nil {
		t.Fatalf("empty-store RestoreAll = (%d, %v), want (0, nil)", n, err)
	}
}

// TestShutdownRacesSessionLifecycle hammers CreateSession / PushWindow /
// CloseSession from 8 goroutines while Shutdown lands mid-flight (run with
// -race). Every call must return cleanly — success or a typed error —
// and the registry must drain without panics or deadlocks.
func TestShutdownRacesSessionLifecycle(t *testing.T) {
	pipe, users := fixture(t)
	srv, err := New(pipe, Config{FineTuneBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := users[g%len(users)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sess, err := srv.CreateSession(u.ID*100+g, len(u.Maps), 0.3)
				if err != nil {
					if errors.Is(err, ErrShutdown) || errors.Is(err, ErrOverloaded) {
						return
					}
					t.Errorf("CreateSession: untyped error %v", err)
					return
				}
				for _, lm := range u.Maps[:3] {
					if _, err := sess.PushWindow(lm.Map); err != nil &&
						!errors.Is(err, ErrShutdown) && !errors.Is(err, ErrOverloaded) &&
						!errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrTimeout) {
						t.Errorf("PushWindow: untyped error %v", err)
						return
					}
				}
				if err := srv.CloseSession(sess.ID()); err != nil &&
					!errors.Is(err, ErrSessionNotFound) {
					t.Errorf("CloseSession: untyped error %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	srv.Shutdown()
	close(stop)
	wg.Wait()
	srv.Shutdown() // idempotent
}
