package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
)

// newWBServer builds a single replica over a fault-injectable in-memory
// store with a fast store breaker (threshold 2, 50ms cooldown).
func newWBServer(t *testing.T, inj *fault.Injector, queueCap int, chaosAdmin bool) (*Server, store.Store) {
	t.Helper()
	pipe, _ := fixture(t)
	st := store.WithFault(store.NewMem(), inj)
	srv, err := New(pipe, Config{
		MaxDelay:              500 * time.Microsecond,
		Store:                 st,
		SnapshotInterval:      time.Hour,
		StoreBreakerThreshold: 2,
		StoreBreakerCooldown:  50 * time.Millisecond,
		ReplayQueueCap:        queueCap,
		Fault:                 inj,
		ChaosAdmin:            chaosAdmin,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestWriteBehindOutageAndDrain walks the full store-outage arc on one
// node: failures queue the session and open the breaker, open-breaker
// persists defer without a store round-trip, durability reads at_risk,
// and the first success after the cooldown closes the breaker and drains
// the queue oldest-first.
func TestWriteBehindOutageAndDrain(t *testing.T) {
	inj := fault.New(41)
	srv, st := newWBServer(t, inj, 8, false)
	ctx := context.Background()

	sess, err := srv.CreateSession(1, 8, 0.5)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if d := srv.wb.durability(sess.ID()); d != "ok" {
		t.Fatalf("healthy durability = %q, want ok", d)
	}

	inj.Enable(fault.StorePutFail, 1)
	for i := 0; i < 2; i++ {
		if err := srv.persistSession(ctx, sess); err == nil {
			t.Fatalf("persist %d: want injected failure", i)
		}
	}
	if got := srv.wb.br.State(); got != BreakerOpen {
		t.Fatalf("breaker after %d failures = %v, want open", 2, got)
	}
	if !srv.wb.pending(sess.ID()) {
		t.Fatal("failed session not queued for replay")
	}
	// Breaker open: the persist defers straight to the queue.
	if err := srv.persistSession(ctx, sess); !errors.Is(err, errPersistDeferred) {
		t.Fatalf("open-breaker persist err = %v, want errPersistDeferred", err)
	}
	if d := sess.Status().Durability; d != "at_risk" {
		t.Fatalf("mid-outage durability = %q, want at_risk", d)
	}
	if srv.wb.depth() != 1 {
		t.Fatalf("queue depth = %d, want 1 (repeat failures collapse per session)", srv.wb.depth())
	}

	// Store heals: after the cooldown the next persist is the half-open
	// probe; its success closes the breaker and replays the queue.
	inj.Enable(fault.StorePutFail, 0)
	time.Sleep(60 * time.Millisecond)
	if err := srv.persistSession(ctx, sess); err != nil {
		t.Fatalf("probe persist after heal: %v", err)
	}
	waitFor(t, 2*time.Second, "replay queue to drain", func() bool { return srv.wb.depth() == 0 })
	if got := srv.wb.br.State(); got != BreakerClosed {
		t.Fatalf("healed breaker = %v, want closed", got)
	}
	if d := sess.Status().Durability; d != "ok" {
		t.Fatalf("healed durability = %q, want ok", d)
	}
	if _, err := st.GetSession(ctx, sess.ID()); err != nil {
		t.Fatalf("no durable record after drain: %v", err)
	}
}

// TestWriteBehindSaturationShedsCreates checks the admission-control arc:
// a full replay queue sheds new session creates with ErrNotDurable (503 +
// Retry-After over HTTP) while established sessions keep serving, and
// creates are admitted again once the queue drains.
func TestWriteBehindSaturationShedsCreates(t *testing.T) {
	inj := fault.New(42)
	srv, _ := newWBServer(t, inj, 1, false)
	ctx := context.Background()

	sess, err := srv.CreateSession(1, 8, 0.5)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	inj.Enable(fault.StorePutFail, 1)
	if err := srv.persistSession(ctx, sess); err == nil {
		t.Fatal("want injected persist failure")
	}
	if !srv.wb.saturated() {
		t.Fatalf("queue depth %d at cap 1 not saturated", srv.wb.depth())
	}

	if _, err := srv.CreateSessionCtx(ctx, 2, 8, 0.5); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("saturated create err = %v, want ErrNotDurable", err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"user_id":3,"expected_windows":8}`)))
	if w.Code != 503 {
		t.Fatalf("saturated HTTP create = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// The established session still serves its status.
	if st := sess.Status(); st.Durability != "at_risk" {
		t.Fatalf("saturated durability = %q, want at_risk", st.Durability)
	}

	// Heal: the queued session replays and creates flow again.
	inj.Enable(fault.StorePutFail, 0)
	if err := srv.persistSession(ctx, sess); err != nil {
		t.Fatalf("persist after heal: %v", err)
	}
	waitFor(t, 2*time.Second, "replay queue to drain", func() bool { return srv.wb.depth() == 0 })
	if _, err := srv.CreateSessionCtx(ctx, 4, 8, 0.5); err != nil {
		t.Fatalf("post-recovery create: %v", err)
	}
}

// TestChaosAdminDisabled checks /v1/chaos refuses with 403 unless the
// server opted in via Config.ChaosAdmin, and that a store outage on a
// server with no fault injector is refused with 400 naming the flag that
// creates one.
func TestChaosAdminDisabled(t *testing.T) {
	inj := fault.New(43)
	srv, _ := newWBServer(t, inj, 8, false)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/chaos",
		strings.NewReader(`{"store_outage_ms":50}`)))
	if w.Code != 403 {
		t.Fatalf("chaos admin disabled: got %d, want 403", w.Code)
	}

	srv, _ = newWBServer(t, nil, 8, true)
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/chaos",
		strings.NewReader(`{"store_outage_ms":50}`)))
	if w.Code != 400 || !strings.Contains(w.Body.String(), "-chaos-admin") {
		t.Fatalf("store outage without an injector: got %d %s, want 400 naming -chaos-admin",
			w.Code, w.Body.String())
	}
}

// TestChaosOverlappingStoreOutage checks that an earlier store-outage
// window's timer does not disarm a later window that overlaps it: the
// store stays down until the later window ends, then recovers.
func TestChaosOverlappingStoreOutage(t *testing.T) {
	inj := fault.New(45)
	srv, _ := newWBServer(t, inj, 8, true)
	ctx := context.Background()
	h := srv.Handler()
	sess, err := srv.CreateSession(1, 8, 0.5)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	arm := func(body string) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/chaos", strings.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("arm %s: %d %s", body, w.Code, w.Body.String())
		}
	}

	start := time.Now()
	arm(`{"store_outage_ms":150}`)
	time.Sleep(50 * time.Millisecond)
	arm(`{"store_outage_ms":1000}`)
	// The first window's timer has fired by now; the second still holds.
	time.Sleep(400*time.Millisecond - time.Since(start))
	if err := srv.persistSession(ctx, sess); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("persist inside the later window: err = %v, want an injected failure", err)
	}
	waitFor(t, 3*time.Second, "store to recover after the later window", func() bool {
		return srv.persistSession(ctx, sess) == nil
	})
	if d := time.Since(start); d < time.Second {
		t.Fatalf("store recovered after %v, before the later window ended", d)
	}
}

// TestChaosWindows arms both window types on a live server: the store
// outage fails writes only for its duration, and the partition gate
// answers every held request with 503 + Retry-After without invoking the
// handler, then lifts.
func TestChaosWindows(t *testing.T) {
	inj := fault.New(44)
	srv, _ := newWBServer(t, inj, 8, true)
	ctx := context.Background()
	h := srv.Handler()

	sess, err := srv.CreateSession(1, 8, 0.5)
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// Store outage window: writes fail while armed, recover after.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/chaos",
		strings.NewReader(`{"store_outage_ms":150}`)))
	if w.Code != 200 {
		t.Fatalf("arm store outage: %d %s", w.Code, w.Body.String())
	}
	if err := srv.persistSession(ctx, sess); err == nil {
		t.Fatal("persist during store outage window should fail")
	}
	waitFor(t, 2*time.Second, "store outage to auto-disarm", func() bool {
		return srv.persistSession(ctx, sess) == nil
	})

	// Partition window: requests stall for the window and 503 with
	// Retry-After, never reaching the handler.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/chaos",
		strings.NewReader(`{"partition_ms":120}`)))
	if w.Code != 200 {
		t.Fatalf("arm partition: %d %s", w.Code, w.Body.String())
	}
	start := time.Now()
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sessions/"+sess.ID(), nil))
	if w.Code != 503 {
		t.Fatalf("partitioned request = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("partition 503 missing Retry-After")
	}
	if held := time.Since(start); held < 80*time.Millisecond {
		t.Fatalf("partitioned request answered in %v; want it held for the window", held)
	}
	// Window over: the same request serves normally.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sessions/"+sess.ID(), nil))
	if w.Code != 200 {
		t.Fatalf("post-partition request = %d, want 200", w.Code)
	}
}
