package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

type kind int

const (
	kindMonitor   kind = iota // open sessions, one window per operation
	kindGateway               // whole session scripts over HTTP through two replicas
	kindColdstart             // whole cold-start lifecycles, in process
)

// workload is one traffic mix. The names are fixed: later changes cite
// them when they say which number should move and which should not.
type workload struct {
	name    string
	kind    kind
	callers int
	device  edge.Device // zero: the server's default (fp32)
	store   bool        // a store.NewFile in a temp dir behind the server(s)
	// metrics are the end-to-end metrics this workload declares beside
	// setup_s, live_heap_mb and failed_share, which every workload reports.
	metrics []string
	// stretch lengthens this workload's slices in a full run: a lifecycle
	// takes most of a second, so it needs more wall time for the same number
	// of samples.
	stretch float64
}

const (
	enrolWindows   = 10 // expected_windows of every session: the retained range
	monitorWindows = 10 // windows a scripted session pushes past the retained range
	labelledMaps   = 5
	pollEvery      = 10 * time.Millisecond
	personalizeCap = 30 * time.Second
)

func workloads(nproc int) []workload {
	window := []string{"windows_per_s", "window_p50_us", "window_p95_us", "cpu_us_per_window"}
	// With 32 closed-loop callers latency is 32 ÷ throughput and adds
	// nothing; it stays a per-layer diagnostic.
	fleet := []string{"windows_per_s", "cpu_us_per_window"}
	return []workload{
		// A lone wearable: one caller, batch 1, so the executor's coalescing
		// timer dominates and kernels barely show.
		{name: "monitor_solo", kind: kindMonitor, callers: 1, stretch: 1, metrics: window},
		// 32 parked callers fill batches and the timer never fires: the nn
		// forward and allocation are the CPU.
		{name: "monitor_fleet", kind: kindMonitor, callers: 32, stretch: 1, metrics: fleet},
		// The same fleet on quant.DeployModel int8 deployments: the
		// fake-quant + ActQuant use of the forward layer.
		{name: "monitor_fleet_int8", kind: kindMonitor, callers: 32, stretch: 1, device: edge.CoralTPU(), metrics: fleet},
		// The only workload paying JSON, the mux and tracing envelope, the
		// routed hop and fenced file-store persists.
		{name: "gateway_http", kind: kindGateway, callers: nproc, stretch: 1, store: true, metrics: window},
		// The paper's headline path: assignment, labels, core.FineTune on the
		// pool, checkpoint persists, personalised serving. Its window counts
		// follow the fine-tune time, so it declares no window metrics.
		{name: "coldstart_lifecycle", kind: kindColdstart, callers: nproc, stretch: 1.6, store: true,
			metrics: []string{"sessions_per_s", "personalize_p50_ms"}},
	}
}

// declares reports whether wl reports the end-to-end metric name.
func (wl *workload) declares(name string) bool {
	switch name {
	case "setup_s", "live_heap_mb", "failed_share":
		return true
	}
	for _, m := range wl.metrics {
		if m == name {
			return true
		}
	}
	return false
}

// recorder is what one caller saw during one phase. Each caller owns its
// recorder, so nothing here is shared while a phase runs.
type recorder struct {
	windows     int
	lat         []int64 // caller-side window latency, ns
	qwait       []int64 // executor queue wait the server reported, ns
	batchSum    int64
	batchN      int64
	sessions    int     // scripted sessions / lifecycles completed
	sessDur     []int64 // how long each took, ns
	personalize []int64 // labels acknowledged → first personalised window, ns

	sent     int // operations attempted (create, window, labels, close)
	failed   int // errored, refused, timed out, or failing the output check
	firstErr string

	maxDiff     float64 // largest |served − reference| seen
	labelN      int
	labelHit    int
	httpWindows int
	forwarded   int // window responses produced by another replica than the one contacted
	lifecycles  int
	personal    int // lifecycles that reached a personalised window
	reassigned  int // lifecycles in which the drift detector moved the user to another cluster
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// caller is one closed-loop client: it sends its next request only after
// the previous one was answered. It stands for a device that streams a
// window and waits for the alarm verdict.
type caller struct {
	e   *env
	rec *recorder

	user   int // index into fx.held of the user being served
	step   int // callers in the running phase: how far nextUser moves
	cursor int // next trial of that user
	// prevCluster is the cluster the previous response of the current
	// session reported; the window that confirms a drift verdict was still
	// served by it.
	prevCluster int

	sess *serve.Session // kindMonitor: the open session

	client *http.Client // kindGateway
	create string       // base URL this caller creates its sessions on
	buf    bytes.Buffer
}

// env is one brought-up instance of a workload: servers, stores, HTTP
// front ends and callers.
type env struct {
	wl   *workload
	fx   *fixture
	tr   *tracer
	refs refTable

	dir     string
	st      store.Store
	srvs    []*serve.Server
	routers []*serve.Router
	https   []*httptest.Server
	urls    []string
	bodies  [][][]byte // kindGateway: window payloads, encoded once, [user][trial]
	callers []*caller
}

// newEnv is the workload's own preparation, the part of setup_s after the
// shared fixture: stores, serve.New (which runs edge.Deploy per cluster),
// routers and listeners, and enrolment of the standing sessions. It
// returns what enrolment sent and how much of it failed.
func newEnv(wl *workload, fx *fixture, refs refTable, tr *tracer) (*env, *recorder, error) {
	e := &env{wl: wl, fx: fx, tr: tr, refs: refs}
	// Every bring-up is a fresh process as far as the servers can tell: the
	// background trace, which in-process windows append to, starts empty.
	obs.ResetSpans()
	var cfgStore store.Store
	if wl.store {
		dir, err := os.MkdirTemp("", "clear-bench-"+wl.name+"-")
		if err != nil {
			return nil, nil, err
		}
		e.dir = dir
		st, err := store.NewFile(dir)
		if err != nil {
			e.close()
			return nil, nil, err
		}
		e.st, cfgStore = st, st
		if tr != nil {
			cfgStore = &timingStore{Store: st, tr: tr}
		}
	}

	// Servers run the shipped defaults (serve.Config zero value: MaxBatch
	// 16, MaxDelay 2ms, drift detector, SLO tracker and tail-sampled
	// tracing all on) plus only what the workload names.
	switch wl.kind {
	case kindGateway:
		if err := e.bringUpReplicas(cfgStore); err != nil {
			e.close()
			return nil, nil, err
		}
	default:
		srv, err := serve.New(fx.pipe, serve.Config{Device: wl.device, Store: cfgStore})
		if err != nil {
			e.close()
			return nil, nil, err
		}
		e.srvs = []*serve.Server{srv}
	}

	for i := 0; i < wl.callers; i++ {
		// Callers start at their own index and step by the number of
		// callers, so together they walk the users without meeting.
		c := &caller{e: e, user: i % len(fx.held), prevCluster: -1}
		if wl.kind == kindGateway {
			c.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
			// Caller 0's sessions live on A and are served where they
			// arrive; every other caller's live on B, so each of its
			// requests to A takes the forwarded hop.
			c.create = e.urls[min(i, 1)]
		}
		e.callers = append(e.callers, c)
	}

	enrol := &recorder{}
	if wl.kind == kindMonitor {
		var err error
		if enrol, err = e.enrol(e.callers); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	return e, enrol, nil
}

// enrol gives each caller a standing session on the env's first server,
// enrolled to steady state: assigned at its first window (10 % of 10),
// retained range filled, no labels. Enrolment runs on all callers at once
// so a fleet's first batches fill instead of each window waiting out the
// timer. It returns what that sent.
func (e *env) enrol(callers []*caller) (*recorder, error) {
	var wg sync.WaitGroup
	for _, c := range callers {
		c.rec = &recorder{}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.rec.sent++
			sess, err := e.srvs[0].CreateSession(e.fx.held[c.user].ID, enrolWindows, 0)
			if err != nil {
				c.rec.fail(err)
				return
			}
			c.sess = sess
			for i := 0; i < enrolWindows; i++ {
				c.push(sess)
			}
		}(c)
	}
	wg.Wait()
	sent := &recorder{}
	for _, c := range callers {
		if c.sess == nil {
			return nil, fmt.Errorf("enrolment failed: %s", c.rec.firstErr)
		}
		sent.merge(c.rec)
	}
	return sent, nil
}

// bringUpReplicas starts two replicas on one ring over one shared store,
// each behind a loopback listener. The listeners exist before the
// handlers because the ring is made of their URLs.
func (e *env) bringUpReplicas(st store.Store) error {
	for i := 0; i < 2; i++ {
		ts := httptest.NewUnstartedServer(nil)
		e.https = append(e.https, ts)
		e.urls = append(e.urls, "http://"+ts.Listener.Addr().String())
	}
	ring := shard.New(e.urls, 0)
	for i, ts := range e.https {
		self := e.urls[i]
		srv, err := serve.New(e.fx.pipe, serve.Config{
			Device: e.wl.device,
			Store:  st,
			Self:   self,
			OwnsID: func(id string) bool { return ring.Owner(id) == self },
		})
		if err != nil {
			return err
		}
		rt := serve.NewRouter(srv, serve.RouterConfig{Self: self, Ring: ring})
		e.srvs = append(e.srvs, srv)
		e.routers = append(e.routers, rt)
		h := rt.Handler()
		if e.tr != nil {
			h = e.tr.middleware("handler."+string(rune('A'+i)), h)
		}
		ts.Config.Handler = h
		ts.Start()
	}
	e.bodies = make([][][]byte, len(e.fx.held))
	for u, um := range e.fx.held {
		for _, lm := range um.Maps {
			body, err := json.Marshal(serve.WindowPayload{Map: &serve.MapPayload{
				Rows: lm.Map.Dim(0), Cols: lm.Map.Dim(1), Data: lm.Map.Data,
			}})
			if err != nil {
				return err
			}
			e.bodies[u] = append(e.bodies[u], body)
		}
	}
	return nil
}

// close stops everything newEnv started and removes the store directory.
func (e *env) close() {
	for _, c := range e.callers {
		if c.client != nil {
			c.client.CloseIdleConnections()
		}
	}
	for _, ts := range e.https {
		ts.Close()
	}
	for _, rt := range e.routers {
		rt.Stop()
	}
	for _, srv := range e.srvs {
		srv.Shutdown()
	}
	if e.st != nil {
		_ = e.st.Close() // file store Close only marks it closed
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // scratch under the OS temp dir; a leftover is harmless
	}
}

// phase is one timed run of some callers: each repeats its unit of work
// until d has passed and stops at a unit boundary, so no window, script or
// lifecycle is cut short.
type phase struct {
	before, after procSnap
	recs          []*recorder
}

// merged is what all callers saw during the phase, in one recorder.
func (p *phase) merged() recorder {
	var all recorder
	for _, r := range p.recs {
		all.merge(r)
	}
	return all
}

// run drives the workload's own traffic for d.
func (e *env) run(d time.Duration) *phase { return e.drive(d, e.callers, e.wl.kind) }

// other drives, for d, the kind of traffic the workload's own lacks, on n
// callers of their own that start at held-out user first: cold-start
// lifecycles where the workload streams windows, and a stream of windows on
// standing sessions where the workload runs lifecycles. Only the
// single-workload protocol uses it, after the measured slice (see
// bench.round).
func (e *env) other(d time.Duration, n, first int) (*phase, error) {
	callers := make([]*caller, n)
	for i := range callers {
		callers[i] = &caller{e: e, user: (first + i) % len(e.fx.held), prevCluster: -1}
	}
	if e.wl.kind != kindColdstart {
		return e.drive(d, callers, kindColdstart), nil
	}
	if _, err := e.enrol(callers); err != nil {
		return nil, err
	}
	return e.drive(d, callers, kindMonitor), nil
}

func (e *env) drive(d time.Duration, callers []*caller, k kind) *phase {
	p := &phase{}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range callers {
		c.rec, c.step = &recorder{}, len(callers)
		p.recs = append(p.recs, c.rec)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			<-start
			for t0 := time.Now(); time.Since(t0) < d; {
				c.unit(k)
			}
		}(c)
	}
	p.before = snapProc()
	close(start)
	wg.Wait()
	p.after = snapProc()
	for _, c := range callers {
		c.rec = nil // the phase owns the samples now
	}
	return p
}

func (c *caller) unit(k kind) {
	switch k {
	case kindMonitor:
		c.push(c.sess)
	case kindGateway:
		c.script()
		c.nextUser()
	case kindColdstart:
		c.lifecycle(c.e.srvs[0])
		c.nextUser()
	}
}

// nextUser moves the caller on by the number of callers in its phase, so
// together they walk the held-out users without meeting.
func (c *caller) nextUser() { c.user = (c.user + c.step) % len(c.e.fx.held) }

// do runs one non-window operation under an op span.
func (c *caller) do(kind string, f func(ctx context.Context) error) error {
	op := c.e.tr.op(kind)
	call := op.child("call")
	err := f(withSpan(context.Background(), call))
	call.end()
	op.end()
	c.rec.sent++
	if err != nil {
		c.rec.fail(fmt.Errorf("%s: %w", kind, err))
	}
	return err
}

// push sends the caller's next held-out map to sess. The latency stamp
// closes before the output check starts, so checking is never timed.
func (c *caller) push(sess *serve.Session) (serve.WindowResult, bool) {
	r := c.rec
	maps := c.e.fx.held[c.user].Maps
	trial := c.cursor % len(maps)
	c.cursor++

	op := c.e.tr.op("window")
	enc := op.child("encode")
	m := maps[trial].Map
	enc.end()
	call := op.child("call")
	t0 := time.Now()
	res, err := sess.PushWindowCtx(withSpan(context.Background(), call), m)
	lat := time.Since(t0)
	call.end()
	defer op.end()

	r.sent++
	if err != nil {
		r.fail(fmt.Errorf("window: %w", err))
		return res, false
	}
	r.windows++
	r.lat = append(r.lat, int64(lat))
	if res.Probs == nil {
		return res, true // still enrolling: acknowledged, nothing classified
	}
	r.qwait = append(r.qwait, int64(res.QueueWait))
	r.batchSum += int64(res.BatchSize)
	r.batchN++
	chk := op.child("check")
	c.check(res.Probs, res.Assignment.Cluster, res.Reassigned, !res.Personalized, trial)
	chk.end()
	return res, true
}

// check is the output check on one served distribution: finite, sums to
// one, and — when it came from a cluster baseline — equal to what that
// cluster's model answers when called directly and un-batched.
func (c *caller) check(probs []float64, cluster int, reassigned, baseline bool, trial int) {
	r := c.rec
	servedBy := cluster
	if reassigned {
		servedBy = c.prevCluster
	}
	c.prevCluster = cluster

	sum, best := 0.0, 0
	for i, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			r.fail(fmt.Errorf("check: non-finite probability %v", probs))
			return
		}
		sum += p
		if p > probs[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		r.fail(fmt.Errorf("check: probabilities sum to %v", sum))
		return
	}
	if baseline && servedBy >= 0 && c.e.refs != nil {
		ref := c.e.refs[servedBy][c.user][trial]
		for i, p := range probs {
			d := math.Abs(p - ref[i])
			r.maxDiff = math.Max(r.maxDiff, d)
			if d > 1e-4 {
				r.fail(fmt.Errorf("check: user %d trial %d cluster %d served %v, direct call gives %v",
					c.user, trial, servedBy, probs, ref))
				return
			}
		}
	}
	r.labelN++
	if best == int(c.e.fx.held[c.user].Maps[trial].Label) {
		r.labelHit++
	}
}

// lifecycle is the whole cold-start path for the caller's current user:
// create → 10 windows (assigned at the first, the 10 % budget) → labels
// for the first 5 → a monitoring window every 10 ms until one is served
// by the fine-tuned model → 10 more windows → close.
func (c *caller) lifecycle(srv *serve.Server) {
	r := c.rec
	u := c.e.fx.held[c.user]
	c.cursor, c.prevCluster = 0, -1
	r.lifecycles++
	began := time.Now()

	var sess *serve.Session
	if c.do("create", func(ctx context.Context) (err error) {
		sess, err = srv.CreateSessionCtx(ctx, u.ID, enrolWindows, 0.1)
		return err
	}) != nil {
		return
	}
	done, moved := false, false
	defer func() {
		err := c.do("close", func(ctx context.Context) error { return srv.CloseSessionCtx(ctx, sess.ID()) })
		if done && err == nil {
			r.sessions++
			r.sessDur = append(r.sessDur, int64(time.Since(began)))
		}
		if moved {
			r.reassigned++
		}
	}()
	// push is c.push, noting a re-assignment: it replays the fine-tune on
	// the new cluster's baseline, so such a lifecycle personalises late.
	push := func() (serve.WindowResult, bool) {
		res, ok := c.push(sess)
		moved = moved || res.Reassigned
		return res, ok
	}

	for i := 0; i < enrolWindows; i++ {
		if _, ok := push(); !ok {
			return
		}
	}
	labels := map[int]int{}
	for i := 0; i < labelledMaps; i++ {
		labels[i] = int(u.Maps[i].Label)
	}
	if c.do("labels", func(ctx context.Context) error {
		res, err := sess.PushLabelsCtx(ctx, labels)
		if err == nil && !res.FineTuneQueued {
			err = errors.New("fine-tune not queued")
		}
		return err
	}) != nil {
		return
	}
	acked := time.Now()
	for {
		res, ok := push()
		if !ok {
			return
		}
		if res.Personalized {
			r.personalize = append(r.personalize, int64(time.Since(acked)))
			r.personal++
			break
		}
		if time.Since(acked) > personalizeCap {
			r.sent++
			r.fail(fmt.Errorf("lifecycle: not personalised after %v", personalizeCap))
			return
		}
		time.Sleep(pollEvery)
	}
	for i := 0; i < monitorWindows; i++ {
		if _, ok := push(); !ok {
			return
		}
	}
	done = true
}

// httpReply is one answered request. body aliases the caller's read
// buffer and is valid until its next request.
type httpReply struct {
	op     spanRef
	status int
	node   string
	body   []byte
	lat    time.Duration
}

// request sends one request on the caller's keep-alive connection. The
// latency is the full round trip: from handing the request to the client
// to the last byte of the response body.
func (c *caller) request(kind, method, url string, body []byte) (httpReply, error) {
	op := c.e.tr.op(kind)
	enc := op.child("encode")
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		op.end()
		return httpReply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	enc.end()
	call := op.child("call")
	if call.t != nil {
		req.Header.Set(spanHeader, call.header())
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		call.end()
		op.end()
		return httpReply{}, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	call.end()
	if err != nil {
		op.end()
		return httpReply{}, err
	}
	return httpReply{op: op, status: resp.StatusCode, node: resp.Header.Get("X-Clear-Node"), body: c.buf.Bytes(), lat: lat}, nil
}

// simple runs a non-window HTTP operation that must answer want.
func (c *caller) simple(kind, method, url string, body []byte, want int, into any) bool {
	c.rec.sent++
	rep, err := c.request(kind, method, url, body)
	if err == nil {
		defer rep.op.end()
		if rep.status != want {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		} else if into != nil {
			err = json.Unmarshal(rep.body, into)
		}
	}
	if err != nil {
		c.rec.fail(fmt.Errorf("%s: %w", kind, err))
		return false
	}
	return true
}

// script is one gateway session: create → 10 retained windows (each a
// fenced file-store persist) → 10 monitoring windows (no persist) →
// delete, every per-session request sent to replica A.
func (c *caller) script() {
	r := c.rec
	u := c.e.fx.held[c.user]
	a := c.e.urls[0]
	c.prevCluster = -1
	began := time.Now()

	createBody, _ := json.Marshal(serve.CreateSessionRequest{UserID: u.ID, ExpectedWindows: enrolWindows})
	var created serve.CreateSessionResponse
	if !c.simple("create", http.MethodPost, c.create+"/v1/sessions", createBody, http.StatusCreated, &created) {
		return
	}
	base := a + "/v1/sessions/" + created.ID
	done := false
	defer func() {
		if c.simple("close", http.MethodDelete, base, nil, http.StatusNoContent, nil) && done {
			r.sessions++
			r.sessDur = append(r.sessDur, int64(time.Since(began)))
		}
	}()

	for trial := 0; trial < enrolWindows+monitorWindows; trial++ {
		r.sent++
		rep, err := c.request("window", http.MethodPost, base+"/windows", c.e.bodies[c.user][trial])
		if err != nil {
			r.fail(fmt.Errorf("window: %w", err))
			return
		}
		if rep.status != http.StatusOK {
			rep.op.end()
			r.fail(fmt.Errorf("window: status %d: %s", rep.status, rep.body))
			return
		}
		r.windows++
		r.httpWindows++
		r.lat = append(r.lat, int64(rep.lat))
		if rep.node != a {
			r.forwarded++
		}
		chk := rep.op.child("check")
		var wr serve.WindowResponse
		if err := json.Unmarshal(rep.body, &wr); err != nil {
			r.fail(fmt.Errorf("window: decode: %w", err))
		} else if wr.Probs != nil {
			r.qwait = append(r.qwait, wr.QueueWaitUS*1000)
			r.batchSum += int64(wr.BatchSize)
			r.batchN++
			c.check(wr.Probs, *wr.Cluster, wr.Reassigned, !wr.Personalized, trial)
		}
		chk.end()
		rep.op.end()
	}
	done = true
}

// merge adds o's counts and samples to r.
func (r *recorder) merge(o *recorder) {
	r.windows += o.windows
	r.lat = append(r.lat, o.lat...)
	r.qwait = append(r.qwait, o.qwait...)
	r.batchSum += o.batchSum
	r.batchN += o.batchN
	r.sessions += o.sessions
	r.sessDur = append(r.sessDur, o.sessDur...)
	r.personalize = append(r.personalize, o.personalize...)
	r.sent += o.sent
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	r.maxDiff = math.Max(r.maxDiff, o.maxDiff)
	r.labelN += o.labelN
	r.labelHit += o.labelHit
	r.httpWindows += o.httpWindows
	r.forwarded += o.forwarded
	r.lifecycles += o.lifecycles
	r.personal += o.personal
	r.reassigned += o.reassigned
}
