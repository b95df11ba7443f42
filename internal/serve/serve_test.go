package serve

// The suite covers the acceptance criteria for the serving layer: full
// lifecycles under concurrency (run with -race), cold-start assignment
// parity with the batch eval path, typed-error → HTTP mappings, executor
// batching correctness, and cache single-flight/LRU semantics. A tiny
// trained pipeline is shared across tests; the users streamed at the
// server come from a different generator seed than the training
// population, so serving is a genuine cold-start.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/wemac"
)

var (
	fixOnce  sync.Once
	fixErr   error
	fixPipe  *core.Pipeline
	fixUsers []*wemac.UserMaps // held-out serving users (seed ≠ training seed)
)

func fixture(t testing.TB) (*core.Pipeline, []*wemac.UserMaps) {
	t.Helper()
	fixOnce.Do(func() {
		ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 4}
		train := wemac.Generate(wemac.Config{
			ArchetypeSizes:     []int{3, 3, 2, 2},
			TrialsPerVolunteer: 6,
			TrialSec:           30,
			Seed:               17,
		})
		users, err := wemac.ExtractAll(train, ecfg)
		if err != nil {
			fixErr = err
			return
		}
		cfg := core.Config{
			K: 4, SubK: 2,
			Extractor: ecfg,
			Model: nn.ModelConfig{
				Conv1: 2, Conv2: 4,
				K1H: 5, K1W: 3, K2H: 3, K2W: 3, Pool1: 4, Pool2: 3,
				LSTMHidden: 12, Dropout: 0.1, Classes: 2, Seed: 1,
			},
			Train:        nn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 3e-3, GradClip: 5, ValFrac: 0.15, Patience: 3, Seed: 1},
			FineTune:     nn.TrainConfig{Epochs: 2, BatchSize: 8, LR: 1e-3, GradClip: 5, Seed: 1},
			Cluster:      cluster.Options{Restarts: 4, MaxIter: 50},
			RefineRounds: 2, RefineSampleFrac: 0.8, Seed: 1,
		}
		fixPipe, fixErr = core.Train(users, cfg)
		if fixErr != nil {
			return
		}
		held := wemac.Generate(wemac.Config{
			ArchetypeSizes:     []int{2, 2, 2, 2},
			TrialsPerVolunteer: 10,
			TrialSec:           30,
			Seed:               23,
		})
		fixUsers, fixErr = wemac.ExtractAll(held, ecfg)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixPipe, fixUsers
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	pipe, _ := fixture(t)
	srv, err := New(pipe, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// waitState polls until the session reaches want (fine-tunes are async).
func waitState(t *testing.T, sess *Session, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if sess.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s stuck in %v waiting for %v", sess.ID(), sess.State(), want)
}

// runLifecycle drives one user through the whole lifecycle and returns the
// assigned cluster.
func runLifecycle(t *testing.T, srv *Server, u *wemac.UserMaps) int {
	t.Helper()
	total := len(u.Maps)
	sess, err := srv.CreateSession(u.ID, total, 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	cluster := -1
	for i, lm := range u.Maps {
		res, err := sess.PushWindow(lm.Map)
		if err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		if res.Assignment != nil {
			cluster = res.Assignment.Cluster
		}
		if i == total/2 {
			labels := map[int]int{}
			for j := 0; j <= i; j++ {
				labels[j] = int(u.Maps[j].Label)
			}
			lr, err := sess.PushLabelsCtx(context.Background(), labels)
			if err != nil {
				t.Fatalf("PushLabelsCtx: %v", err)
			}
			if !lr.FineTuneQueued {
				t.Fatalf("expected a fine-tune to start, state %v", lr.State)
			}
			waitState(t, sess, StateMonitoring)
		}
	}
	st := sess.Status()
	if !st.Personalized {
		t.Fatalf("session %s finished without personalisation", sess.ID())
	}
	if err := srv.CloseSession(sess.ID()); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	return cluster
}

func TestLifecycleStateMachine(t *testing.T) {
	pipe, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond})
	u := users[0]
	total := len(u.Maps)

	sess, err := srv.CreateSession(u.ID, total, 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	assignAt := wemac.BudgetWindows(total, 0.1)
	if st := sess.Status(); st.AssignAt != assignAt {
		t.Fatalf("AssignAt = %d, want %d", st.AssignAt, assignAt)
	}

	var got *core.Assignment
	for i, lm := range u.Maps {
		res, err := sess.PushWindow(lm.Map)
		if err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		switch {
		case i < assignAt-1:
			if res.State != StateEnrolling || res.Assignment != nil {
				t.Fatalf("window %d: state %v before the budget", i, res.State)
			}
		case i == assignAt-1:
			if res.State != StateAssigned || res.Assignment == nil {
				t.Fatalf("window %d should trigger assignment, got state %v", i, res.State)
			}
			got = res.Assignment
		default:
			if res.Probs == nil || res.Event == nil {
				t.Fatalf("window %d: post-assignment window not classified", i)
			}
			if len(res.Probs) != pipe.Cfg.Model.Classes {
				t.Fatalf("window %d: %d probs, want %d", i, len(res.Probs), pipe.Cfg.Model.Classes)
			}
		}
	}

	// Cold-start parity: the served assignment must be bitwise identical
	// to the batch eval path on the same user.
	want := pipe.Assign(u, 0.1)
	if got.Cluster != want.Cluster {
		t.Fatalf("served cluster %d ≠ eval cluster %d", got.Cluster, want.Cluster)
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("score[%d]: served %v ≠ eval %v", i, got.Scores[i], want.Scores[i])
		}
	}

	// Labels → async fine-tune → monitoring with the personalised model.
	labels := map[int]int{}
	for j := 0; j < total/2; j++ {
		labels[j] = int(u.Maps[j].Label)
	}
	lr, err := sess.PushLabelsCtx(context.Background(), labels)
	if err != nil {
		t.Fatalf("PushLabelsCtx: %v", err)
	}
	if !lr.FineTuneQueued || lr.Labeled != total/2 {
		t.Fatalf("PushLabelsCtx = %+v, want a queued fine-tune over %d labels", lr, total/2)
	}
	waitState(t, sess, StateMonitoring)
	res, err := sess.PushWindow(u.Maps[0].Map)
	if err != nil {
		t.Fatalf("post-finetune PushWindow: %v", err)
	}
	if !res.Personalized {
		t.Fatal("window after fine-tune was not served from the personalised checkpoint")
	}

	// Duplicate labels don't restart a job.
	lr, err = sess.PushLabelsCtx(context.Background(), labels)
	if err != nil {
		t.Fatalf("duplicate PushLabelsCtx: %v", err)
	}
	if lr.FineTuneQueued {
		t.Fatal("unchanged label set queued a second fine-tune")
	}

	// Close: the registry forgets it and operations fail typed.
	if err := srv.CloseSession(sess.ID()); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, err := srv.Session(sess.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("lookup after close = %v, want ErrSessionNotFound", err)
	}
	if _, err := sess.PushWindow(u.Maps[0].Map); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("PushWindow after close = %v, want ErrSessionClosed", err)
	}
}

func TestAssignmentParityAcrossUsers(t *testing.T) {
	pipe, users := fixture(t)
	srv := newTestServer(t, Config{})
	for _, u := range users {
		sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.1)
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		n := wemac.BudgetWindows(len(u.Maps), 0.1)
		var cluster int
		for i := 0; i < n; i++ {
			res, err := sess.PushWindow(u.Maps[i].Map)
			if err != nil {
				t.Fatalf("PushWindow: %v", err)
			}
			if res.Assignment != nil {
				cluster = res.Assignment.Cluster
			}
		}
		if want := pipe.Assign(u, 0.1); cluster != want.Cluster {
			t.Errorf("user %d: served cluster %d ≠ eval cluster %d", u.ID, cluster, want.Cluster)
		}
		if err := srv.CloseSession(sess.ID()); err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
	}
}

func TestConcurrentLifecycles(t *testing.T) {
	_, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: time.Millisecond, FineTuneWorkers: 4})
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u *wemac.UserMaps) {
			defer wg.Done()
			runLifecycle(t, srv, u)
		}(u)
	}
	wg.Wait()
	if n := srv.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions left open after all lifecycles closed", n)
	}
}

// TestUntracedWindowsLeaveBackgroundTraceAlone is the span-leak
// regression: windows pushed in-process with no request trace (assignment
// and every drift re-score included) must not append spans to obs's
// background trace, which is never finished and so never freed.
func TestUntracedWindowsLeaveBackgroundTraceAlone(t *testing.T) {
	_, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond, DriftWindow: 2})
	u := users[1]
	sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	before := len(obs.BackgroundTrace().Snapshot().Spans)
	for pass := 0; pass < 3; pass++ {
		for i, lm := range u.Maps {
			if _, err := sess.PushWindow(lm.Map); err != nil {
				t.Fatalf("PushWindow %d: %v", i, err)
			}
		}
	}
	if st := sess.Status(); st.Drift == nil {
		t.Fatal("the drift detector never re-scored a window")
	}
	if n := len(obs.BackgroundTrace().Snapshot().Spans) - before; n != 0 {
		t.Fatalf("%d spans leaked onto the background trace over %d windows", n, 3*len(u.Maps))
	}
}

func TestTypedErrors(t *testing.T) {
	_, users := fixture(t)
	srv := newTestServer(t, Config{MaxSessions: 2})

	if _, err := srv.CreateSession(1, 0, 0.1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero windows: %v, want ErrBadRequest", err)
	}
	if _, err := srv.CreateSession(1, 10, 1.5); !errors.Is(err, ErrBadRequest) {
		t.Errorf("frac > 1: %v, want ErrBadRequest", err)
	}
	if _, err := srv.Session("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown id: %v, want ErrSessionNotFound", err)
	}
	if err := srv.CloseSession("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("close unknown id: %v, want ErrSessionNotFound", err)
	}

	a, err := srv.CreateSession(1, 10, 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := srv.CreateSession(2, 10, 0.1); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := srv.CreateSession(3, 10, 0.1); !errors.Is(err, ErrOverloaded) {
		t.Errorf("over session cap: %v, want ErrOverloaded", err)
	}

	// Bad shapes and label ranges.
	if _, err := a.PushWindow(nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil window: %v, want ErrBadRequest", err)
	}
	if _, err := a.PushLabelsCtx(context.Background(), map[int]int{5: 0}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("label for unseen window: %v, want ErrBadRequest", err)
	}
	if _, err := a.PushWindow(users[0].Maps[0].Map); err != nil {
		t.Fatalf("PushWindow: %v", err)
	}
	if _, err := a.PushLabelsCtx(context.Background(), map[int]int{0: 9}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("label out of class range: %v, want ErrBadRequest", err)
	}
}

func TestHTTPAPI(t *testing.T) {
	pipe, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	u := users[1]
	post := func(path string, body any) (*http.Response, []byte) {
		js, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(js))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	// Enrol.
	resp, body := post("/v1/sessions", CreateSessionRequest{UserID: u.ID, ExpectedWindows: len(u.Maps)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	if cr.State != "enrolling" || cr.AssignAt < 1 {
		t.Fatalf("create response %+v", cr)
	}
	base := "/v1/sessions/" + cr.ID

	// Stream every window as a precomputed map; the budget window must
	// carry the assignment, later ones the classification.
	for i, lm := range u.Maps {
		payload := WindowPayload{Map: &MapPayload{
			Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
		}}
		resp, body := post(base+"/windows", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, resp.StatusCode, body)
		}
		var wr WindowResponse
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatalf("window response: %v", err)
		}
		if i+1 == cr.AssignAt && (wr.Cluster == nil || wr.State != "assigned") {
			t.Fatalf("window %d should assign, got %s", i, body)
		}
		if i+1 > cr.AssignAt && len(wr.Probs) != pipe.Cfg.Model.Classes {
			t.Fatalf("window %d not classified: %s", i, body)
		}
	}

	// Labels (JSON object keys are strings; map[int]int round-trips).
	labels := map[string]map[int]int{"labels": {0: int(u.Maps[0].Label), 1: int(u.Maps[1].Label)}}
	resp, body = post(base+"/labels", labels)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d %s", resp.StatusCode, body)
	}
	var lr LabelsResponse
	if err := json.Unmarshal(body, &lr); err != nil || !lr.FineTuneQueued {
		t.Fatalf("labels response %s (err %v)", body, err)
	}

	// Status polling until the fine-tune lands.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(hs.URL + base)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var st SessionStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("status decode: %v", err)
		}
		resp.Body.Close()
		if st.State == "monitoring" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fine-tune never landed, state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Server stats.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if stats.Sessions != 1 || stats.Clusters != pipe.Cfg.K {
		t.Fatalf("stats %+v", stats)
	}

	// Error mappings.
	if resp, _ := post("/v1/sessions/zzz/windows", WindowPayload{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session → %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(base+"/windows", WindowPayload{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty window → %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(base+"/windows", WindowPayload{Map: &MapPayload{Rows: 2, Cols: 2, Data: []float64{1}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad dims → %d, want 400", resp.StatusCode)
	}

	// Delete, then the session is gone.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete → %d, want 204", dresp.StatusCode)
	}
	gresp, err := http.Get(hs.URL + base)
	if err != nil {
		t.Fatalf("GET after delete: %v", err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete → %d, want 404", gresp.StatusCode)
	}
}

func TestHTTPOverloadMapsTo429(t *testing.T) {
	srv := newTestServer(t, Config{MaxSessions: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	mk := func() *http.Response {
		js, _ := json.Marshal(CreateSessionRequest{UserID: 1, ExpectedWindows: 10})
		resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", bytes.NewReader(js))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := mk(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create → %d", resp.StatusCode)
	}
	resp := mk()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over cap → %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestExecutorBatchingCorrectness fills one round: with maxDelay far
// beyond the test, a round closes only when maxBatch requests are in it.
// The coalesced pass must give bitwise the sequential answers.
func TestExecutorBatchingCorrectness(t *testing.T) {
	pipe, users := fixture(t)
	model := pipe.ModelFor(0)
	const batch = 8
	exec := NewExecutor(batch, time.Minute, 128, 4)
	defer exec.Close()

	// Inputs and their sequential ground truth.
	var xs []*tensorT
	for _, u := range users {
		for _, lm := range u.Maps[:4] {
			xs = append(xs, pipe.Apply(lm.Map))
		}
	}
	xs = xs[:batch]
	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = model.Probabilities(x)
	}

	// Batching and per-model locking may not change the math.
	results := make([]InferResult, len(xs))
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func(i int, x *tensorT) {
			defer wg.Done()
			res, err := exec.Submit(nil, model, x)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, x)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, res := range results {
		if res.Batch != batch {
			t.Errorf("request %d rode a round of %d, want %d", i, res.Batch, batch)
		}
		if len(res.Probs) != len(want[i]) {
			t.Fatalf("result %d: %d probs, want %d", i, len(res.Probs), len(want[i]))
		}
		for j := range want[i] {
			if res.Probs[j] != want[i][j] {
				t.Fatalf("result %d class %d: batched %v ≠ sequential %v", i, j, res.Probs[j], want[i][j])
			}
		}
	}
}

// TestClassifiedWindowAllocs bounds the heap allocations of one classified
// window, end to end through PushWindowCtx (sanitise, normalise, the
// executor round, the monitor and the drift detector). While tensor.At
// and Set leaked their index slice, the per-cell feature paths made about
// 3 200 allocations a window on this fixture.
func TestClassifiedWindowAllocs(t *testing.T) {
	srv := newTestServer(t, Config{})
	_, users := fixture(t)
	u := users[0]
	sess, err := srv.CreateSession(u.ID, srv.cfg.MaxWindows, 0.01)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ctx := context.Background()
	for i := 0; sess.State() == StateEnrolling; i++ {
		if _, err := sess.PushWindowCtx(ctx, u.Maps[i%len(u.Maps)].Map); err != nil {
			t.Fatalf("PushWindowCtx %d: %v", i, err)
		}
	}
	m := u.Maps[0].Map
	const budget = 300
	n := testing.AllocsPerRun(50, func() {
		if _, err := sess.PushWindowCtx(ctx, m); err != nil {
			t.Fatalf("PushWindowCtx: %v", err)
		}
	})
	t.Logf("%.0f allocations per classified window", n)
	if n > budget {
		t.Errorf("one classified window allocates %.0f times, want ≤ %d", n, budget)
	}
}

func TestExecutorShutdownAndShed(t *testing.T) {
	_, users := fixture(t)
	pipe, _ := fixture(t)
	x := pipe.Apply(users[0].Maps[0].Map)

	exec := NewExecutor(4, time.Millisecond, 16, 2)
	exec.Close()
	if _, err := exec.Submit(nil, pipe.ModelFor(0), x); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after Close = %v, want ErrShutdown", err)
	}
	exec.Close() // idempotent

	// A full queue with no dispatcher sheds instead of blocking.
	stalled := &Executor{maxBatch: 1, queue: make(chan *inferRequest)}
	if _, err := stalled.Submit(nil, pipe.ModelFor(0), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue = %v, want ErrOverloaded", err)
	}
}

// TestShutdownFineTuneEnqueueRace hammers PushLabelsCtx (whose fine-tune
// trigger sends on the server's ftq) concurrently with Shutdown (which
// closes ftq). Run with -race: the enqueue must fail typed with
// ErrShutdown, never panic with a send on a closed channel.
func TestShutdownFineTuneEnqueueRace(t *testing.T) {
	pipe, users := fixture(t)
	srv, err := New(pipe, Config{MaxDelay: 500 * time.Microsecond, FineTuneQueue: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Shutdown() // idempotent

	type labeled struct {
		sess *Session
		u    *wemac.UserMaps
		n    int // windows streamed (= label-eligible range)
	}
	var ls []labeled
	for _, u := range users[:4] {
		sess, err := srv.CreateSession(u.ID, len(u.Maps), 0.1)
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		n := wemac.BudgetWindows(len(u.Maps), 0.1)
		for i := 0; i < n; i++ {
			if _, err := sess.PushWindow(u.Maps[i].Map); err != nil {
				t.Fatalf("PushWindow: %v", err)
			}
		}
		ls = append(ls, labeled{sess, u, n})
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func(l labeled) {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				idx := j % l.n
				_, err := l.sess.PushLabelsCtx(context.Background(), map[int]int{idx: int(l.u.Maps[idx].Label)})
				if err != nil && !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrOverloaded) {
					t.Errorf("PushLabelsCtx during shutdown: %v", err)
					return
				}
			}
		}(l)
	}
	close(start)
	srv.Shutdown()
	wg.Wait()
}

// TestExecutorForgetDefersWhileInFlight pins a model's lock entry (as a
// dispatch group does for the duration of its pass) and checks Forget
// leaves the entry — and every concurrent acquire reuses it — until the
// last release, so two passes can never serialise through different
// mutexes.
func TestExecutorForgetDefersWhileInFlight(t *testing.T) {
	e := NewExecutor(1, time.Millisecond, 4, 2)
	defer e.Close()
	m := &nn.Model{}

	ml := e.acquire(m)
	e.Forget(m)
	e.locksMu.Lock()
	cur, ok := e.locks[m]
	e.locksMu.Unlock()
	if !ok || cur != ml || !ml.retired {
		t.Fatalf("Forget with a pass in flight must retire, not delete (ok=%v same=%v retired=%v)",
			ok, cur == ml, ml.retired)
	}
	if ml2 := e.acquire(m); ml2 != ml {
		t.Fatal("acquire after Forget minted a second lock entry for an in-flight model")
	}
	e.release(m, ml)
	e.locksMu.Lock()
	_, ok = e.locks[m]
	e.locksMu.Unlock()
	if !ok {
		t.Fatal("entry dropped while a second group still holds a reference")
	}
	e.release(m, ml)
	e.locksMu.Lock()
	_, ok = e.locks[m]
	e.locksMu.Unlock()
	if ok {
		t.Fatal("retired entry not dropped once idle")
	}

	// With no pass in flight, Forget deletes immediately.
	ml3 := e.acquire(m)
	e.release(m, ml3)
	e.Forget(m)
	e.locksMu.Lock()
	_, ok = e.locks[m]
	e.locksMu.Unlock()
	if ok {
		t.Fatal("Forget on an idle model left its entry behind")
	}
}

// TestLabelsDuringFineTuneFoldIntoNextJob checks the PushLabelsCtx contract
// that labels arriving while a job is in flight are trained by a follow-up
// job at completion, not silently dropped.
func TestLabelsDuringFineTuneFoldIntoNextJob(t *testing.T) {
	_, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond})
	u := users[2]
	total := len(u.Maps)
	sess, err := srv.CreateSession(u.ID, total, 0.1)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i, lm := range u.Maps {
		if _, err := sess.PushWindow(lm.Map); err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
	}
	batch := func(lo, hi int) map[int]int {
		m := map[int]int{}
		for j := lo; j < hi; j++ {
			m[j] = int(u.Maps[j].Label)
		}
		return m
	}
	lr, err := sess.PushLabelsCtx(context.Background(), batch(0, total/4))
	if err != nil || !lr.FineTuneQueued {
		t.Fatalf("first PushLabelsCtx = %+v, %v; want a queued fine-tune", lr, err)
	}
	lr, err = sess.PushLabelsCtx(context.Background(), batch(total/4, total/2))
	if err != nil {
		t.Fatalf("second PushLabelsCtx: %v", err)
	}
	if lr.FineTuneQueued {
		t.Skip("first fine-tune finished before the second batch; overlap not exercised")
	}

	// Settle: personalised, no job in flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := sess.Status()
		if st.State == "monitoring" && !st.FineTuneInFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never settled, status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every label must have been seen by a job: re-sending a duplicate
	// subset must not find unseen labels to train on.
	lr, err = sess.PushLabelsCtx(context.Background(), batch(total/4, total/2))
	if err != nil {
		t.Fatalf("duplicate PushLabelsCtx: %v", err)
	}
	if lr.FineTuneQueued {
		t.Fatal("labels pushed during the in-flight job were never folded into a follow-up job")
	}
}

// TestWindowRetentionBounded checks the per-session memory bound: maps are
// retained only up to expectedWindows, streaming past it keeps working
// (classified, counted, not stored), and labels are validated against both
// the streamed and retained ranges.
func TestWindowRetentionBounded(t *testing.T) {
	_, users := fixture(t)
	srv := newTestServer(t, Config{MaxDelay: 500 * time.Microsecond, MaxWindows: 8})
	u := users[0]

	if _, err := srv.CreateSession(u.ID, 9, 0.1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("expected_windows over MaxWindows = %v, want ErrBadRequest", err)
	}
	sess, err := srv.CreateSession(u.ID, 8, 0.5)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i := 0; i < 16; i++ {
		res, err := sess.PushWindow(u.Maps[i%len(u.Maps)].Map)
		if err != nil {
			t.Fatalf("PushWindow %d: %v", i, err)
		}
		if res.Windows != i+1 {
			t.Fatalf("window %d: Windows = %d, want %d", i, res.Windows, i+1)
		}
	}
	sess.mu.Lock()
	retained := len(sess.maps)
	sess.mu.Unlock()
	if retained != 8 {
		t.Fatalf("retained %d maps, want the expectedWindows cap of 8", retained)
	}
	if st := sess.Status(); st.Windows != 16 {
		t.Fatalf("Status.Windows = %d, want all 16 streamed", st.Windows)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), map[int]int{7: int(u.Maps[7].Label)}); err != nil {
		t.Fatalf("label in retained range: %v", err)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), map[int]int{8: 0}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("label past retention = %v, want ErrBadRequest", err)
	}
	if _, err := sess.PushLabelsCtx(context.Background(), map[int]int{16: 0}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("label for unstreamed window = %v, want ErrBadRequest", err)
	}
}

func TestCacheSingleFlightAndLRU(t *testing.T) {
	c := NewModelCache(2)
	ma, mb, mc := &nn.Model{}, &nn.Model{}, &nn.Model{}

	// Single-flight: a second trigger for the same key must not build.
	ea, created := c.beginLoad("a")
	if !created {
		t.Fatal("first beginLoad should create")
	}
	if _, created := c.beginLoad("a"); created {
		t.Fatal("second beginLoad for an in-flight key should dedup")
	}
	// In-flight entries are invisible to Lookup.
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("in-flight entry served from Lookup")
	}
	c.complete(ea, ma, nil)
	if m, ok := c.Lookup("a"); !ok || m != ma {
		t.Fatal("completed entry not served")
	}

	// A failed build releases the slot for retry.
	eb, _ := c.beginLoad("b")
	c.complete(eb, nil, errors.New("boom"))
	if eb2, created := c.beginLoad("b"); !created {
		t.Fatal("failed build should release the key")
	} else {
		c.complete(eb2, mb, nil)
	}

	// LRU eviction: touch "a" so "b" is the victim when "c" lands.
	c.Lookup("a")
	ec, _ := c.beginLoad("c")
	c.complete(ec, mc, nil)
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("LRU victim \"b\" survived eviction")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("recently used \"a\" was evicted")
	}
	if _, ok := c.Lookup("c"); !ok {
		t.Fatal("newest entry \"c\" missing")
	}

	// Remove detaches an in-flight entry; its late completion is dropped.
	ed, _ := c.beginLoad("d")
	if m := c.Remove("d"); m != nil {
		t.Fatal("removing an in-flight entry returned a model")
	}
	md := &nn.Model{}
	c.complete(ed, md, nil)
	if _, ok := c.Lookup("d"); ok {
		t.Fatal("detached entry's completion re-inserted it")
	}
	// Remove on a completed entry returns it.
	if m := c.Remove("a"); m != ma {
		t.Fatalf("Remove(a) = %v, want the cached model", m)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d, want 1 (just \"c\")", c.Len())
	}
}

func TestCacheConcurrentTriggers(t *testing.T) {
	c := NewModelCache(8)
	var builds int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("s%d", i%4)
				if e, created := c.beginLoad(key); created {
					mu.Lock()
					builds++
					mu.Unlock()
					c.complete(e, &nn.Model{}, nil)
				}
				c.Lookup(key)
			}
		}()
	}
	wg.Wait()
	if builds < 1 {
		t.Fatal("no build ever ran")
	}
}
