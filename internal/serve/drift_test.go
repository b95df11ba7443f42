package serve

// Self-healing assignment coverage: detector fires exactly once on a
// session whose signal migrates to another archetype (hysteresis, no
// flapping), the cooldown suppresses boundary oscillation, an operator
// override heals back, and a snapshot taken mid-re-assignment restores to
// a serving-safe state. Run with -race.

import (
	"context"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wemac"
)

// driftCfg is a detector tuned for short test streams: tiny evidence ring,
// two positives to a verdict (plus the confirming window), long cooldown.
func driftCfg() Config {
	return Config{
		MaxDelay:         500 * time.Microsecond,
		DriftWindow:      4,
		DriftThreshold:   0.01,
		DriftConsecutive: 2,
		DriftCooldown:    200,
	}
}

// twoClusterUsers returns two fixture users cold-start-assigned to
// different clusters.
func twoClusterUsers(t *testing.T) (ua, ub *wemac.UserMaps, ka, kb int) {
	t.Helper()
	pipe, users := fixture(t)
	ka = pipe.Assign(users[0], 0.1).Cluster
	for _, u := range users[1:] {
		if k := pipe.Assign(u, 0.1).Cluster; k != ka {
			return users[0], u, ka, k
		}
	}
	t.Fatal("all fixture users assign to one cluster")
	return nil, nil, 0, 0
}

// streamUntilReassign cycles u's maps into sess until a window reports
// Reassigned or maxWindows is hit, returning how many re-assignments were
// observed.
func streamUntilReassign(t *testing.T, sess *Session, u *wemac.UserMaps, maxWindows int) int {
	t.Helper()
	reassigns := 0
	for i := 0; i < maxWindows; i++ {
		res, err := sess.PushWindow(u.Maps[i%len(u.Maps)].Map)
		if err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		if res.Reassigned {
			reassigns++
		}
	}
	return reassigns
}

// TestDriftDetectorReassignsOnce streams one user's enrolment windows and
// then another archetype's signal: the detector must swap the session to
// the cluster the fresh evidence prefers, exactly once.
func TestDriftDetectorReassignsOnce(t *testing.T) {
	ua, ub, ka, kb := twoClusterUsers(t)
	srv := newTestServer(t, driftCfg())
	sess, err := srv.CreateSession(ua.ID, len(ua.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	// Enrol + assign on ua's own signal.
	n := wemac.BudgetWindows(len(ua.Maps), 0.1)
	for i := 0; i < n; i++ {
		if _, err := sess.PushWindow(ua.Maps[i].Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
	}
	if st := sess.Status(); st.Cluster != ka {
		t.Fatalf("assigned to %d, want %d", st.Cluster, ka)
	}

	// The "user" now produces ub's archetype. 40 windows is plenty: ring
	// of 4 + streak of 2 + confirmation.
	reassigns := streamUntilReassign(t, sess, ub, 40)
	if reassigns != 1 {
		t.Fatalf("observed %d re-assignments, want exactly 1", reassigns)
	}
	st := sess.Status()
	if st.Cluster != kb {
		t.Fatalf("healed to cluster %d, want the evidence-preferred %d", st.Cluster, kb)
	}
	if st.PrevCluster != ka || st.Reassigns != 1 {
		t.Fatalf("re-assignment record %+v, want prev=%d reassigns=1", st, ka)
	}
	if st.Drift == nil {
		t.Fatal("status carries no drift block after detector activity")
	}
	if st.Drift.CooldownLeft <= 0 {
		t.Fatal("cooldown not armed after re-assignment")
	}
	if st.RunnerUp < 0 {
		t.Fatal("runner-up cluster not surfaced")
	}

	stats := srv.Stats()
	if stats.ReassignedSessions != 1 {
		t.Fatalf("stats.ReassignedSessions = %d, want 1", stats.ReassignedSessions)
	}
	if stats.DriftReassigns < 1 || stats.DriftVerdicts < 1 {
		t.Fatalf("drift counters not exported: %+v", stats)
	}
}

// TestDriftCooldownSuppressesFlapping re-assigns once, then feeds the
// *original* archetype again: the fresh verdict must be swallowed by the
// cooldown instead of swapping back.
func TestDriftCooldownSuppressesFlapping(t *testing.T) {
	ua, ub, ka, _ := twoClusterUsers(t)
	srv := newTestServer(t, driftCfg())
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
	suppressedBefore := mDriftSuppressed.Value()
	if r := streamUntilReassign(t, sess, ub, 40); r != 1 {
		t.Fatalf("first drift: %d re-assignments, want 1", r)
	}
	// Oscillate back: evidence now prefers ka again, inside the cooldown.
	if r := streamUntilReassign(t, sess, ua, 40); r != 0 {
		t.Fatalf("flap: %d re-assignments during cooldown, want 0", r)
	}
	if st := sess.Status(); st.Reassigns != 1 {
		t.Fatalf("session flapped: %d re-assignments", st.Reassigns)
	}
	if mDriftSuppressed.Value() <= suppressedBefore {
		t.Fatal("flap suppression not counted")
	}
	_ = ka
}

// TestOverrideAssignmentHealsBack reproduces the RT experiment's serving
// side: force the session onto a wrong cluster, keep streaming the user's
// own signal, and the detector must claw the assignment back.
func TestOverrideAssignmentHealsBack(t *testing.T) {
	ua, _, ka, kb := twoClusterUsers(t)
	srv := newTestServer(t, driftCfg())
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
	if err := sess.OverrideAssignment(kb); err != nil {
		t.Fatalf("OverrideAssignment: %v", err)
	}
	if st := sess.Status(); st.Cluster != kb {
		t.Fatalf("override did not take: cluster %d", st.Cluster)
	}
	if r := streamUntilReassign(t, sess, ua, 40); r != 1 {
		t.Fatalf("%d re-assignments, want the detector to heal exactly once", r)
	}
	if st := sess.Status(); st.Cluster != ka {
		t.Fatalf("healed to %d, want the user's own cluster %d", st.Cluster, ka)
	}

	// Invalid overrides are typed.
	if err := sess.OverrideAssignment(-1); err == nil {
		t.Fatal("negative cluster override accepted")
	}
	if err := sess.OverrideAssignment(len(srv.deps)); err == nil {
		t.Fatal("out-of-range cluster override accepted")
	}
}

// TestDriftDisabled checks the kill switch: no tracker is ever allocated
// and no re-assignment happens even under blatant drift.
func TestDriftDisabled(t *testing.T) {
	ua, ub, ka, _ := twoClusterUsers(t)
	cfg := driftCfg()
	cfg.DriftDisabled = true
	srv := newTestServer(t, cfg)
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
	if r := streamUntilReassign(t, sess, ub, 40); r != 0 {
		t.Fatalf("disabled detector re-assigned %d times", r)
	}
	st := sess.Status()
	if st.Cluster != ka || st.Drift != nil {
		t.Fatalf("disabled detector left tracker state: %+v", st)
	}
}

// TestSnapshotMidReassigningRestoresSafe is the crash-consistency
// guarantee: a session snapshotted in StateReassigning (assignment already
// swapped, label replay in flight) must restore serving-safe — on the
// *new* cluster, demoted to the shared baseline, labels replayable, never
// half-swapped — with the re-assignment record and cooldown intact.
func TestSnapshotMidReassigningRestoresSafe(t *testing.T) {
	ua, _, ka, kb := twoClusterUsers(t)
	cfg := driftCfg()
	cfg.Store = store.NewMem()
	srv := newTestServer(t, cfg)
	sess, err := srv.CreateSession(ua.ID, len(ua.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i, lm := range ua.Maps {
		if _, err := sess.PushWindow(lm.Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
	}
	labels := map[int]int{}
	for j := 0; j < len(ua.Maps)/2; j++ {
		labels[j] = int(ua.Maps[j].Label)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), labels); err != nil {
		t.Fatalf("PushLabelsCtx: %v", err)
	}
	waitState(t, sess, StateMonitoring)

	// Freeze the session exactly mid-re-assignment: cluster already
	// swapped to kb, replay nominally in flight, cooldown armed. (The
	// real window is transient; constructing it directly is what makes
	// the round-trip deterministic.)
	sess.mu.Lock()
	sess.state = StateReassigning
	sess.prevCluster = sess.asg.Cluster
	sess.asg.Cluster = kb
	sess.reassigns = 1
	sess.degraded = true
	sess.personalized = false
	sess.ensureDriftLocked().cooldown = 57
	sess.mu.Unlock()

	// The persisted checkpoint was cut on ka, so it is stale for the
	// swapped record and the restore must replay the fine-tune on kb.
	if n := srv.FlushAll(context.Background()); n != 1 {
		t.Fatalf("FlushAll = %d, want 1", n)
	}

	srv2 := newTestServer(t, cfg)
	nrec, err := srv2.RestoreAll(context.Background(), nil)
	if err != nil || nrec != 1 {
		t.Fatalf("RestoreAll = %d, %v; want 1 session", nrec, err)
	}
	rsess, err := srv2.Session(sess.ID())
	if err != nil {
		t.Fatalf("restored session lookup: %v", err)
	}
	st := rsess.Status()
	if st.State == "reassigning" || st.State == "drifting" {
		t.Fatalf("restored into transient state %q", st.State)
	}
	if st.Cluster != kb {
		t.Fatalf("restored cluster %d, want the healed assignment %d (never the pre-swap %d)",
			st.Cluster, kb, ka)
	}
	if st.Reassigns != 1 || st.PrevCluster != ka {
		t.Fatalf("re-assignment record lost: %+v", st)
	}
	if st.Drift == nil || st.Drift.CooldownLeft != 57 {
		t.Fatalf("cooldown not restored: %+v", st.Drift)
	}
	if st.Labeled != len(labels) {
		t.Fatalf("restored %d labels, want %d", st.Labeled, len(labels))
	}
	// The replayed fine-tune must land: labels were durable, so the
	// session re-personalises on the restored (healed) cluster.
	waitState(t, rsess, StateMonitoring)
	res, err := rsess.PushWindow(ua.Maps[0].Map)
	if err != nil {
		t.Fatalf("post-restore PushWindow: %v", err)
	}
	if !res.Personalized {
		t.Fatal("restored session never re-personalised from its replayed labels")
	}
}
