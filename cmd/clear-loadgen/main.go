// Command clear-loadgen replays synthetic WEMAC users against a running
// clear-serve instance in closed loop: every simulated user walks the
// whole lifecycle — enrol, stream the unlabeled cold-start budget, get
// assigned, upload labels, wait out the asynchronous fine-tune, then
// stream the remaining windows as a monitored session. It reports
// throughput, client-side latency quantiles, shed rate, and (because the
// generator knows each user's ground-truth archetype) cold-start
// assignment accuracy.
//
// Usage:
//
//	clear-loadgen [-addr http://localhost:8080[,http://localhost:8081,...]]
//	              [-users 32] [-concurrency 32]
//	              [-trials 10] [-trialsec 45] [-seed 99] [-ftfrac 0.2]
//	              [-raw] [-keep] [-tracesample F]
//	              [-chaos] [-chaosdrop F] [-accfloor F] [-expectbreaker]
//	              [-storeoutage D] [-outageafter D]
//	              [-partitionfor D] [-partitionafter D]
//	              [-joinafter D] [-joinnode url] [-drainafter D] [-drainnode url]
//	              [-driftusers N] [-driftstart F] [-expectreassign]
//
// -joinafter/-drainafter turn the run into a live-topology smoke (the
// servers must run with -membership-admin): at t+joinafter the loadgen
// POSTs a membership join for -joinnode (a standby replica started
// outside the ring) to the first endpoint and adds it to the rotation;
// at t+drainafter it POSTs a drain to -drainnode (default: the last
// endpoint) and removes it from the rotation. Either flag appends
// topology verdicts to -json: zero_loss_on_join (every lifecycle
// completed, zero unexpected 5xx, the join was applied), drain_clean
// (the drained replica handed off every session — none remaining, not
// incomplete — and the survivors' ring excludes it at a higher epoch),
// and, when a join ran, minimal_movement (the fraction of this run's
// session IDs whose ring owner changed stays near the 1/N consistent-
// hashing ideal, computed with the server's own ring arithmetic).
//
// -addr accepts a comma-separated list of clear-serve replicas. Requests
// rotate round-robin across the pool (the router forwards per-session
// requests to the owning replica, so any endpoint can serve any session),
// and a transport error, 502, or 503 — the shapes a replica mid-restart
// produces — rotates to the next endpoint instead of failing the
// lifecycle. This is the client half of the rolling-restart smoke: with
// replicas restarting under it, the run must still complete every
// lifecycle with zero unexpected 5xx (the no_5xx verdict in -json).
//
// -chaos turns the run into a fault-tolerance check: each window is
// dropped-channel-corrupted client-side at rate -chaosdrop (simulating a
// dead sensor stream; pair with the server's -fault-* flags for build
// failures and stalls), sessions tolerate degraded-mode serving, rejected
// windows (422) are re-read and re-sent, timeouts (504) are absorbed, and
// the run exits non-zero unless the SLOs hold: every lifecycle completes,
// no 5xx server errors, assignment accuracy stays above -accfloor, and —
// with -expectbreaker — a circuit breaker is observed opening and closing
// again during the run.
//
// -storeoutage and -partitionfor arm server-side chaos windows mid-run
// through POST /v1/chaos (the server must run with -chaos-admin): the
// store outage fails every replica's store writes for the window, driving
// the write-behind replay queue, store breaker, and durability admission
// control; the partition silences one replica (the last in -addr) so the
// others must fail its sessions over and hand them back afterwards. A
// run with either window armed appends four extra SLO verdicts —
// no_lifecycle_loss, replay_drained (all queues back to zero, nothing
// dropped), handed_back (local == owned everywhere after a recovery
// wait), and shed_retry_after (every 503 carried a Retry-After hint) —
// and fails unless all hold.
//
// -tracesample F sends a client-generated W3C traceparent on roughly that
// fraction of requests and turns the run into a distributed-tracing
// conformance check: the server must echo the same 128-bit trace id back
// on every response (including 422/429/504 error paths), and for every
// sampled non-2xx response the trace id in the error body must resolve
// through GET /v1/traces/<id> (errors bypass the server's tail sampler).
// Any echo mismatch or unresolvable error trace fails the run.
//
// -driftusers turns the first N users into drift personas: their
// physiology interpolates toward a different archetype from -driftstart of
// the stream onward (wemac.DriftSpec), exercising the server's
// self-healing assignment detector. Assignment accuracy is scored on the
// FIRST cluster each session reports, so a mid-stream re-assignment does
// not corrupt the cold-start metric. With -expectreassign the run fails
// unless at least one detector re-assignment is observed (tune the
// server's -drift-* flags down so the detector can fire within -trials
// windows), no drift session flaps (re-assigns more than once), and the
// zero-5xx SLO holds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/shard"
	"repro/internal/wemac"
)

// JSON mirrors of the serve API types (the loadgen speaks only HTTP, as a
// real client would).
type createReq struct {
	UserID          int     `json:"user_id"`
	ExpectedWindows int     `json:"expected_windows"`
	AssignFrac      float64 `json:"assign_frac,omitempty"`
}
type createResp struct {
	ID       string `json:"id"`
	AssignAt int    `json:"assign_at"`
}
type windowResp struct {
	State        string    `json:"state"`
	Cluster      *int      `json:"cluster,omitempty"`
	Probs        []float64 `json:"probs,omitempty"`
	Personalized bool      `json:"personalized"`
	Degraded     bool      `json:"degraded"`
	Imputed      bool      `json:"imputed"`
	Reassigned   bool      `json:"reassigned"`
	BatchSize    int       `json:"batch_size"`
}
type statusResp struct {
	State        string `json:"state"`
	Personalized bool   `json:"personalized"`
	Degraded     bool   `json:"degraded"`
}
type statsResp struct {
	ClusterArchetypes []int    `json:"cluster_archetypes"`
	Shed              int64    `json:"shed"`
	Breakers          []string `json:"breakers"`
	DegradedSessions  int      `json:"degraded_sessions"`
	CorruptWindows    int64    `json:"corrupt_windows"`
	ImputedWindows    int64    `json:"imputed_windows"`
	FineTuneRetries   int64    `json:"finetune_retries"`
	FineTuneGiveups   int64    `json:"finetune_giveups"`
	RestoredSessions  int64    `json:"restored_sessions"`
	DriftVerdicts     int64    `json:"drift_verdicts"`
	DriftReassigns    int64    `json:"drift_reassigns"`
	DriftSuppressed   int64    `json:"drift_suppressed"`
	WriteBehind       *struct {
		Queue           int    `json:"queue"`
		Cap             int    `json:"cap"`
		Enqueued        int64  `json:"enqueued"`
		Replayed        int64  `json:"replayed"`
		Dropped         int64  `json:"dropped"`
		Shed            int64  `json:"shed"`
		Breaker         string `json:"breaker"`
		PersistFailures int64  `json:"persist_failures"`
	} `json:"write_behind"`
	Shard *struct {
		Self          string   `json:"self"`
		Down          []string `json:"down"`
		OwnedSessions int      `json:"owned_sessions"`
		LocalSessions int      `json:"local_sessions"`
		Failovers     int64    `json:"failovers"`
		Evicted       int64    `json:"evicted_sessions"`
	} `json:"shard"`
	Membership *struct {
		Epoch           uint64   `json:"epoch"`
		Members         []string `json:"members"`
		Draining        bool     `json:"draining"`
		DrainRemaining  int      `json:"drain_remaining"`
		DrainHandedOff  int      `json:"drain_handed_off"`
		DrainFailures   int      `json:"drain_failures"`
		DrainIncomplete bool     `json:"drain_incomplete"`
	} `json:"membership"`
}

// membershipResp mirrors GET /v1/membership (and the POST responses).
type membershipResp struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Hash    string   `json:"hash"`
}

// shed503 / shed503NoRA count 503 responses and the subset missing a
// Retry-After header — under chaos windows every shed must tell the
// client when to come back (the shed_retry_after verdict).
var shed503, shed503NoRA int64

// srvErrs counts 5xx responses other than the tolerated 503/504 — in chaos
// mode any of these (a 500 is what a handler bug looks like) fails the SLO.
var srvErrs int64

// endpoints is the rotating pool of clear-serve base URLs. A single -addr
// degenerates to the classic one-server loop; a comma-separated list
// spreads requests round-robin and lets postRetry/getEP fail over to the
// next replica when one is mid-restart. The pool is mutable mid-run: the
// topology choreography adds a joined replica and removes a draining one
// (mu guards urls; pick and snapshot are the only readers during the run).
type endpoints struct {
	mu   sync.RWMutex
	urls []string
	next uint64
}

func newEndpoints(addr string) *endpoints {
	eps := &endpoints{}
	for _, u := range strings.Split(addr, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			eps.urls = append(eps.urls, u)
		}
	}
	if len(eps.urls) == 0 {
		die(fmt.Errorf("-addr: no endpoints in %q", addr))
	}
	return eps
}

// pick returns the next endpoint round-robin (atomic, so concurrent
// sessions spread evenly without coordination).
func (e *endpoints) pick() string {
	n := atomic.AddUint64(&e.next, 1)
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.urls[int((n-1)%uint64(len(e.urls)))]
}

// snapshot returns a copy of the current pool.
func (e *endpoints) snapshot() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.urls...)
}

// add admits a replica to the rotation (idempotent).
func (e *endpoints) add(u string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, have := range e.urls {
		if have == u {
			return
		}
	}
	e.urls = append(e.urls, u)
}

// remove drops a replica from the rotation.
func (e *endpoints) remove(u string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := e.urls[:0]
	for _, have := range e.urls {
		if have != u {
			live = append(live, have)
		}
	}
	if len(live) > 0 { // never empty the pool
		e.urls = live
	}
}

// rotatable reports whether an error warrants retrying the request on the
// next endpoint: transport failures (connection refused/reset — the
// replica is down or draining its listener) and 502/503 responses. A 502
// still counts in srvErrs — this stack never legitimately emits one — but
// the lifecycle gets a chance to complete elsewhere.
func rotatable(err error) bool {
	if he, ok := err.(*httpError); ok {
		return he.code == http.StatusBadGateway || he.code == http.StatusServiceUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// traceCheck implements -tracesample. Every `every`-th request (atomic
// counter, so the schedule is deterministic regardless of goroutine
// interleaving) carries a client traceparent whose 128-bit id is derived
// from the counter; the response headers must echo it and sampled error
// bodies must carry a trace id that resolves via /v1/traces/<id>.
type traceCheckT struct {
	every       int64 // 0 = disabled
	n           int64 // request counter
	sent        int64 // traceparents attached
	mismatch    int64 // responses that did not echo our trace id
	errResolved int64 // error-path traces found in the server store
	errMissing  int64 // ...and those that were not
}

var traceCheck traceCheckT

// armTrace decides whether this request is sampled and, if so, attaches a
// traceparent and returns the 32-hex trace id (empty otherwise).
func armTrace(req *http.Request) string {
	if traceCheck.every <= 0 {
		return ""
	}
	n := atomic.AddInt64(&traceCheck.n, 1)
	if n%traceCheck.every != 0 {
		return ""
	}
	atomic.AddInt64(&traceCheck.sent, 1)
	tid := fmt.Sprintf("%016x%016x", n, n*2654435761+1) // non-zero, unique
	req.Header.Set("traceparent", fmt.Sprintf("00-%s-%016x-01", tid, n))
	return tid
}

// checkTraceEcho verifies the response carries our trace id back: the
// echoed traceparent must hold the full 128-bit id and X-Trace-Id the low
// 64 bits (the short form used in logs, error bodies, and /v1/traces).
func checkTraceEcho(resp *http.Response, tid string) {
	if tid == "" {
		return
	}
	tp := resp.Header.Get("traceparent")
	short := resp.Header.Get("X-Trace-Id")
	if !strings.Contains(tp, tid) || short != tid[16:] {
		atomic.AddInt64(&traceCheck.mismatch, 1)
	}
}

// resolveErrTrace runs on sampled non-2xx responses: the error body's
// trace_id must exist in the server's trace store (errors bypass tail
// sampling). The lookup deliberately bypasses armTrace so a failing
// lookup cannot recurse into more sampled requests.
func resolveErrTrace(client *http.Client, reqURL, tid string, err error) {
	he, ok := err.(*httpError)
	if tid == "" || !ok {
		return
	}
	var body struct {
		TraceID string `json:"trace_id"`
	}
	base := reqURL
	if i := strings.Index(reqURL, "/v1/"); i >= 0 {
		base = reqURL[:i]
	}
	if json.Unmarshal([]byte(he.body), &body) != nil || body.TraceID != tid[16:] {
		atomic.AddInt64(&traceCheck.errMissing, 1)
		return
	}
	resp, lerr := client.Get(base + "/v1/traces/" + body.TraceID)
	if lerr != nil {
		atomic.AddInt64(&traceCheck.errMissing, 1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		atomic.AddInt64(&traceCheck.errMissing, 1)
		return
	}
	atomic.AddInt64(&traceCheck.errResolved, 1)
}

// probeTraceparent mints a deterministic W3C traceparent outside the
// armTrace counter space, so probe trace ids cannot collide with any id
// the load run minted.
func probeTraceparent(n uint64) (header, tid string) {
	n += 1 << 40
	tid = fmt.Sprintf("%016x%016x", n, n*2654435761+1)
	return fmt.Sprintf("00-%s-%016x-01", tid, n+7), tid
}

// probeDo issues one probe request with an explicit traceparent and
// returns the X-Clear-Node stamp (which replica actually served it)
// alongside the decoded body. It bypasses armTrace/getJSON so the probe
// cannot perturb the run's tracing tallies.
func probeDo(client *http.Client, method, url, traceparent string, body, out any) (string, error) {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	return resp.Header.Get("X-Clear-Node"), decodeJSON(resp, out)
}

// sameNode compares replica URLs modulo a trailing slash.
func sameNode(a, b string) bool {
	return strings.TrimRight(a, "/") == strings.TrimRight(b, "/")
}

// probeTraceStitch drives one cross-node request after the load and
// asserts the fleet observability contract end to end: a traced request
// entering a NON-OWNER replica is forwarded (the X-Clear-Node stamp names
// the owner), and its trace then resolves at that same non-owner as one
// stitched tree with spans from at least two nodes, including the
// `forward` hop attributed to the owner. It runs post-load because the
// server's trace store tail-samples OK traces under sustained QPS; with
// the run drained the probe's trace is always kept. A few full retries
// (fresh session, fresh trace ids) absorb topology transitions mid-probe
// — a restarting replica or a join landing between the create and the
// forwarded GET; in a steady cluster a failure is deterministic.
func probeTraceStitch(client *http.Client, pool []string) (bool, string) {
	detail := ""
	for attempt := uint64(0); attempt < 4; attempt++ {
		var ok bool
		if ok, detail = probeTraceStitchOnce(client, pool, attempt); ok {
			return true, detail
		}
		time.Sleep(500 * time.Millisecond)
	}
	return false, detail
}

func probeTraceStitchOnce(client *http.Client, pool []string, attempt uint64) (bool, string) {
	header, _ := probeTraceparent(2 * attempt)
	var cr createResp
	owner, err := probeDo(client, http.MethodPost, pool[0]+"/v1/sessions", header,
		createReq{UserID: 0, ExpectedWindows: 4}, &cr)
	if err != nil {
		return false, fmt.Sprintf("probe session create failed: %v", err)
	}
	defer probeDo(client, http.MethodDelete, pool[0]+"/v1/sessions/"+cr.ID, "", nil, nil)
	if owner == "" {
		return false, "create response carries no X-Clear-Node stamp"
	}
	entry := ""
	for _, u := range pool {
		if !sameNode(u, owner) {
			entry = u
			break
		}
	}
	if entry == "" {
		return false, fmt.Sprintf("no non-owner entry in pool (owner %s)", owner)
	}

	header, tid := probeTraceparent(2*attempt + 1)
	servedBy, err := probeDo(client, http.MethodGet, entry+"/v1/sessions/"+cr.ID, header, nil, nil)
	if err != nil {
		return false, fmt.Sprintf("forwarded status GET via %s failed: %v", entry, err)
	}
	if !sameNode(servedBy, owner) {
		return false, fmt.Sprintf("status GET via %s served by %q, want owner %q", entry, servedBy, owner)
	}

	// Both segments (the entry's proxy span and the owner's handler span)
	// land asynchronously with the relayed response, so poll briefly.
	var ft struct {
		TraceID string   `json:"trace_id"`
		Nodes   []string `json:"nodes"`
		Spans   []struct {
			Name  string            `json:"name"`
			Node  string            `json:"node"`
			Attrs map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = probeDo(client, http.MethodGet, entry+"/v1/traces/"+tid, "", nil, &ft)
		if err == nil && len(ft.Nodes) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			return false, fmt.Sprintf("trace %s never stitched across >=2 nodes at %s (last: err %v, nodes %v)",
				tid, entry, err, ft.Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if ft.TraceID != tid {
		return false, fmt.Sprintf("stitched trace id %q, want %q", ft.TraceID, tid)
	}
	nodes := map[string]bool{}
	fwdPeer := ""
	for _, sp := range ft.Spans {
		nodes[sp.Node] = true
		if sp.Name == "forward" && fwdPeer == "" {
			fwdPeer = sp.Attrs["peer"]
		}
	}
	if len(nodes) < 2 {
		return false, fmt.Sprintf("stitched spans cover %d node(s): %v", len(nodes), ft.Nodes)
	}
	if !sameNode(fwdPeer, owner) {
		return false, fmt.Sprintf("forward span peer %q, want owner %q", fwdPeer, owner)
	}
	return true, fmt.Sprintf("trace %s resolved at non-owner %s: spans from %d nodes, forward hop -> %s",
		tid[16:], entry, len(nodes), owner)
}

// chaosCfg is the per-run chaos-mode configuration; rng draws are per-user
// (seeded from the run seed + user ID) so runs replay deterministically
// regardless of goroutine scheduling.
type chaosCfg struct {
	enabled bool
	drop    float64
}

// chaosTally aggregates what the chaos run absorbed.
type chaosTally struct {
	mu       sync.Mutex
	dropped  int  // windows corrupted client-side
	rejected int  // 422s re-read and re-sent
	timeouts int  // 504s absorbed
	degraded int  // windows answered from the cluster baseline
	imputed  int  // windows the server repaired
	sawOpen  bool // a breaker was observed open
	reclosed bool // ...and later observed closed again
}

// loadgenReport is the -json machine-readable mirror of the closed-loop
// report: a "schema" discriminator, a "serve" block with windows_per_sec /
// p50_us-style keys, and per-check SLO verdicts that CI gates on with jq.
type loadgenReport struct {
	Schema string `json:"schema"` // "clear-loadgen/1"
	Meta   struct {
		Go          string `json:"go"`
		Addr        string `json:"addr"`
		Users       int    `json:"users"`
		Concurrency int    `json:"concurrency"`
		Trials      int    `json:"trials"`
		Seed        int64  `json:"seed"`
		Chaos       bool   `json:"chaos,omitempty"`
		DriftUsers  int    `json:"drift_users,omitempty"`
	} `json:"meta"`
	Serve struct {
		Windows       int     `json:"windows"`
		ElapsedSec    float64 `json:"elapsed_sec"`
		WindowsPerSec float64 `json:"windows_per_sec"`
		P50US         float64 `json:"p50_us"`
		P95US         float64 `json:"p95_us"`
		P99US         float64 `json:"p99_us"`
		MaxUS         float64 `json:"max_us"`
		ShedsClient   int64   `json:"sheds_client"`
		ShedsServer   int64   `json:"sheds_server"`
	} `json:"serve"`
	Lifecycle struct {
		Completed        int     `json:"completed"`
		Personalized     int     `json:"personalized"`
		MeanLifecycleSec float64 `json:"mean_lifecycle_sec"`
		AssignAccPct     float64 `json:"assign_acc_pct"`
		MonitorAccPct    float64 `json:"monitor_acc_pct"`
		MonitoredWindows int     `json:"monitored_windows"`
		Reassigned       int     `json:"reassigned_sessions,omitempty"`
		Flapped          int     `json:"flapped_sessions,omitempty"`
	} `json:"lifecycle"`
	Tracing *tracingReport `json:"tracing,omitempty"`
	// ChaosWindows aggregates the write-behind / failover surface across
	// all replicas after the recovery wait; present when -storeoutage or
	// -partitionfor armed a window.
	ChaosWindows *chaosWindowsReport `json:"chaos_windows,omitempty"`
	SLO          []sloVerdict        `json:"slo"`
	Pass         bool                `json:"pass"`
}

type chaosWindowsReport struct {
	StoreOutageSec   float64 `json:"store_outage_sec,omitempty"`
	PartitionSec     float64 `json:"partition_sec,omitempty"`
	PartitionTarget  string  `json:"partition_target,omitempty"`
	ReplayEnqueued   int64   `json:"replay_enqueued"`
	ReplayReplayed   int64   `json:"replay_replayed"`
	ReplayDropped    int64   `json:"replay_dropped"`
	ReplayQueueFinal int     `json:"replay_queue_final"`
	PersistFailures  int64   `json:"persist_failures"`
	ShedCreates      int64   `json:"shed_creates"`
	Failovers        int64   `json:"failovers"`
	HandedBack       bool    `json:"handed_back"`
	Sheds503         int64   `json:"sheds_503"`
	Sheds503NoRA     int64   `json:"sheds_503_no_retry_after"`
	RecoverySec      float64 `json:"recovery_sec"`
}

// tracingReport is the -tracesample block of the -json report.
type tracingReport struct {
	Sent        int64 `json:"sent"`
	Mismatches  int64 `json:"mismatches"`
	ErrResolved int64 `json:"err_resolved"`
	ErrMissing  int64 `json:"err_missing"`
	// Stitched is the post-run cross-node stitch probe verdict; present
	// only when the endpoint pool spans more than one replica.
	Stitched *bool `json:"stitched,omitempty"`
}

// sloVerdict is one named pass/fail check from the run's SLO gate.
type sloVerdict struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// writeReport emits the -json artifact ("-" = stdout).
func writeReport(path string, rep *loadgenReport) {
	js, err := json.MarshalIndent(rep, "", "  ")
	die(err)
	js = append(js, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(js)
	} else {
		err = os.WriteFile(path, js, 0o644)
		if err == nil {
			fmt.Printf("wrote %s\n", path)
		}
	}
	die(err)
}

// userResult is one simulated user's outcome.
type userResult struct {
	ok           bool
	err          error
	id           string // session ID (for post-hoc ring-movement math)
	base         string // session URL, set when the session was kept open
	cluster      int    // FIRST cluster the session reported (cold-start)
	archetype    int
	drifter      bool // user is a drift persona
	reassigns    int  // detector re-assignments observed mid-stream
	personalized bool
	lifecycleS   float64
	correct      int // monitored windows predicted correctly
	monitored    int
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "clear-serve base URL(s), comma-separated; requests rotate across the pool")
		users    = flag.Int("users", 32, "simulated users")
		conc     = flag.Int("concurrency", 32, "concurrent sessions")
		trials   = flag.Int("trials", 10, "windows per user")
		trialSec = flag.Float64("trialsec", 45, "recording seconds per window")
		seed     = flag.Int64("seed", 99, "generator seed (keep distinct from the server's)")
		ftFrac   = flag.Float64("ftfrac", 0.2, "labelled fraction uploaded for fine-tuning")
		raw      = flag.Bool("raw", false, "send raw signal recordings instead of precomputed maps")
		keep     = flag.Bool("keep", false, "leave sessions open instead of closing them")
		traceFr  = flag.Float64("tracesample", 0, "fraction of requests sent with a client traceparent; echo and error-trace resolution are asserted")
		windows  = flag.Int("mapwindows", 8, "feature-map windows (must match the server profile)")
		winSec   = flag.Float64("mapwinsec", 8, "feature window seconds (must match the server profile)")

		chaos         = flag.Bool("chaos", false, "chaos mode: inject client-side sensor dropouts and assert robustness SLOs")
		chaosDrop     = flag.Float64("chaosdrop", 0.15, "chaos: per-window channel-dropout rate")
		accFloor      = flag.Float64("accfloor", 25, "chaos: minimum assignment accuracy %% (4 clusters ⇒ 25 is chance)")
		expectBreaker = flag.Bool("expectbreaker", false, "chaos: require a breaker open→closed cycle to be observed")

		storeOutage    = flag.Duration("storeoutage", 0, "chaos window: fail store writes on every replica for this long (server needs -chaos-admin)")
		outageAfter    = flag.Duration("outageafter", 2*time.Second, "chaos window: delay before arming the store outage")
		partitionFor   = flag.Duration("partitionfor", 0, "chaos window: partition one replica (the last in -addr) for this long")
		partitionAfter = flag.Duration("partitionafter", 3*time.Second, "chaos window: delay before arming the partition")

		joinAfter  = flag.Duration("joinafter", 0, "topology: POST a membership join for -joinnode this long into the run (server needs -membership-admin)")
		joinNode   = flag.String("joinnode", "", "topology: replica URL to join (a standby started outside the ring)")
		drainAfter = flag.Duration("drainafter", 0, "topology: POST a graceful drain to -drainnode this long into the run")
		drainNode  = flag.String("drainnode", "", "topology: replica URL to drain (default: the last endpoint in -addr)")

		driftUsers     = flag.Int("driftusers", 0, "turn the first N users into drift personas (archetype migrates mid-stream)")
		driftStart     = flag.Float64("driftstart", 0.35, "stream fraction at which drift personas start migrating")
		expectReassign = flag.Bool("expectreassign", false, "chaos: require ≥1 detector re-assignment, and no session to flap")

		jsonOut = flag.String("json", "", "write the closed-loop report as machine-readable JSON to this path ('-' for stdout)")
	)
	flag.Parse()

	eps := newEndpoints(*addr)
	if len(eps.snapshot()) > 1 {
		fmt.Printf("endpoint pool: %d replicas, rotating with failover on transport errors/502/503\n", len(eps.snapshot()))
	}

	if *traceFr > 0 {
		if *traceFr >= 1 {
			traceCheck.every = 1
		} else {
			traceCheck.every = int64(1/(*traceFr) + 0.5)
		}
		fmt.Printf("trace sampling: every %d requests carry a client traceparent\n", traceCheck.every)
	}

	// Spread users across the four archetypes so assignment accuracy is
	// measurable for every cluster.
	sizes := make([]int, 4)
	for i := 0; i < *users; i++ {
		sizes[i%4]++
	}
	// Drift personas: the first -driftusers volunteers migrate toward the
	// "opposite" archetype (two apart, the largest physiological jump) from
	// -driftstart of their stream onward. Generation interleaves archetypes
	// round-robin, so volunteer i belongs to archetype i%4.
	if *driftUsers > *users {
		*driftUsers = *users
	}
	var specs []wemac.DriftSpec
	for i := 0; i < *driftUsers; i++ {
		specs = append(specs, wemac.DriftSpec{
			User: i, To: (i%4 + 2) % 4, StartFrac: *driftStart,
		})
	}
	fmt.Printf("generating %d synthetic users (%v, %d trials × %.0fs, %d drift personas)...\n",
		*users, sizes, *trials, *trialSec, len(specs))
	ds := wemac.Generate(wemac.Config{
		ArchetypeSizes:     sizes,
		TrialsPerVolunteer: *trials,
		TrialSec:           *trialSec,
		Drift:              specs,
		Seed:               *seed,
	})
	ecfg := features.ExtractorConfig{WindowSec: *winSec, Windows: *windows}
	var maps []*wemac.UserMaps
	if !*raw {
		var err error
		maps, err = wemac.ExtractAll(ds, ecfg)
		die(err)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	var (
		latMu     sync.Mutex
		latencies []float64 // ms, per window POST
		sheds     int64
	)
	observe := func(d time.Duration, shed int) {
		latMu.Lock()
		latencies = append(latencies, float64(d.Microseconds())/1000)
		sheds += int64(shed)
		latMu.Unlock()
	}

	ccfg := chaosCfg{enabled: *chaos, drop: *chaosDrop}
	tally := &chaosTally{}
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	if *chaos {
		fmt.Printf("chaos mode: client dropout rate %.2f, accuracy floor %.0f%%, expect breaker cycle %v\n",
			*chaosDrop, *accFloor, *expectBreaker)
		// Watch the breaker states through the public stats surface; the
		// SLO wants an open breaker to be seen healing, not just tripping.
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-pollDone:
					return
				case <-time.After(50 * time.Millisecond):
				}
				var st statsResp
				if err := getEP(client, eps, "/v1/stats", &st); err != nil {
					continue
				}
				tally.mu.Lock()
				open := false
				for _, b := range st.Breakers {
					if b == "open" || b == "half-open" {
						open = true
					}
				}
				if open {
					tally.sawOpen = true
				} else if tally.sawOpen {
					tally.reclosed = true
				}
				tally.mu.Unlock()
			}
		}()
	}

	// Chaos windows arm mid-run via POST /v1/chaos: the store outage hits
	// every replica (each process wraps its own injector around the shared
	// store, so a "disk outage" must be armed everywhere); the partition
	// isolates exactly one replica — deterministically the last in -addr —
	// so the others' routers must fail its sessions over and hand them
	// back when the window closes.
	windowsArmed := *storeOutage > 0 || *partitionFor > 0
	var partitionTarget string
	if *partitionFor > 0 {
		us := eps.snapshot()
		partitionTarget = us[len(us)-1]
	}
	if *storeOutage > 0 {
		d := *storeOutage
		time.AfterFunc(*outageAfter, func() {
			for _, u := range eps.snapshot() {
				if err := postJSON(client, u+"/v1/chaos",
					map[string]any{"store_outage_ms": d.Milliseconds()}, nil); err != nil {
					fmt.Fprintf(os.Stderr, "chaos: arming store outage on %s: %v\n", u, err)
				}
			}
			fmt.Printf("chaos: store outage armed for %v on %d replicas\n", d, len(eps.snapshot()))
		})
	}
	if *partitionFor > 0 {
		d, target := *partitionFor, partitionTarget
		time.AfterFunc(*partitionAfter, func() {
			if err := postJSON(client, target+"/v1/chaos",
				map[string]any{"partition_ms": d.Milliseconds()}, nil); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: arming partition on %s: %v\n", target, err)
			} else {
				fmt.Printf("chaos: %s partitioned for %v\n", target, d)
			}
		})
	}

	// Topology choreography: join a standby replica and/or gracefully drain
	// one mid-run (the servers must run with -membership-admin). The join
	// goes to the first endpoint (any member can admit); the drain goes to
	// the draining replica itself, which leaves the ring and hands its
	// sessions off while the load keeps flowing.
	topoArmed := *joinAfter > 0 || *drainAfter > 0
	var topo struct {
		mu            sync.Mutex
		initMembers   []string
		joined        bool
		joinEpoch     uint64
		drainTarget   string
		drainAccepted bool
		preDrainEpoch uint64
	}
	if topoArmed {
		if *joinAfter > 0 && *joinNode == "" {
			die(fmt.Errorf("-joinafter requires -joinnode"))
		}
		var mv membershipResp
		if err := getEP(client, eps, "/v1/membership", &mv); err != nil {
			die(fmt.Errorf("topology run needs GET /v1/membership (router mode): %w", err))
		}
		topo.initMembers = mv.Members
		topo.drainTarget = strings.TrimRight(*drainNode, "/")
		if topo.drainTarget == "" {
			us := eps.snapshot()
			topo.drainTarget = us[len(us)-1]
		}
		fmt.Printf("topology: initial epoch %d, members %v\n", mv.Epoch, mv.Members)
	}
	if *joinAfter > 0 {
		node := strings.TrimRight(*joinNode, "/")
		admin := eps.snapshot()[0]
		time.AfterFunc(*joinAfter, func() {
			var v membershipResp
			if err := postJSON(client, admin+"/v1/membership",
				map[string]any{"action": "join", "node": node}, &v); err != nil {
				fmt.Fprintf(os.Stderr, "topology: join %s: %v\n", node, err)
				return
			}
			eps.add(node)
			topo.mu.Lock()
			topo.joined = true
			topo.joinEpoch = v.Epoch
			topo.mu.Unlock()
			fmt.Printf("topology: %s joined at epoch %d\n", node, v.Epoch)
		})
	}
	if *drainAfter > 0 {
		time.AfterFunc(*drainAfter, func() {
			topo.mu.Lock()
			target := topo.drainTarget
			topo.mu.Unlock()
			var pre membershipResp
			_ = getJSON(client, target+"/v1/membership", &pre)
			var v membershipResp
			if err := postJSON(client, target+"/v1/membership",
				map[string]any{"action": "drain"}, &v); err != nil {
				fmt.Fprintf(os.Stderr, "topology: drain %s: %v\n", target, err)
				return
			}
			eps.remove(target)
			topo.mu.Lock()
			topo.drainAccepted = true
			topo.preDrainEpoch = pre.Epoch
			topo.mu.Unlock()
			fmt.Printf("topology: drain of %s accepted (pre-drain epoch %d)\n", target, pre.Epoch)
		})
	}

	start := time.Now()
	results := make([]userResult, *users)
	sem := make(chan struct{}, *conc)
	var wg sync.WaitGroup
	for i, v := range ds.Volunteers {
		wg.Add(1)
		go func(i int, v *wemac.Volunteer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var um *wemac.UserMaps
			if maps != nil {
				um = maps[i]
			}
			rng := rand.New(rand.NewSource(*seed*1000 + int64(v.ID)))
			// An -expectbreaker run keeps sessions open so the healing
			// phase below has live sessions to drive probes through.
			keepOpen := *keep || (ccfg.enabled && *expectBreaker)
			results[i] = runUser(client, eps, v, um, *ftFrac, keepOpen, observe, ccfg, rng, tally)
		}(i, v)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Breaker healing phase. Lifecycles can finish before any open
	// breaker's cooldown elapses, and half-open probes only fire on
	// windows pushed through degraded sessions — so keep a trickle of
	// clean windows flowing until the poller sees every breaker closed
	// again (or the deadline passes and the SLO check reports the miss).
	if *chaos && *expectBreaker {
		healStart := time.Now()
		for time.Since(healStart) < 60*time.Second {
			tally.mu.Lock()
			healed := tally.reclosed || (!tally.sawOpen && time.Since(healStart) > 2*time.Second)
			tally.mu.Unlock()
			if healed {
				break
			}
			for i, r := range results {
				if r.base == "" {
					continue
				}
				var um *wemac.UserMaps
				if maps != nil {
					um = maps[i]
				}
				v := ds.Volunteers[i]
				var wr windowResp
				_, _ = postRetry(client, eps, r.base+"/windows", windowPayload(v, um, len(v.Trials)-1), &wr)
			}
			time.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("breaker healing phase took %v\n", time.Since(healStart).Round(time.Millisecond))
		if !*keep {
			for _, r := range results {
				if r.base == "" {
					continue
				}
				req, _ := http.NewRequest(http.MethodDelete, eps.pick()+r.base, nil)
				if resp, err := client.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}
	}
	close(pollDone)
	pollWG.Wait()

	// A short run must not outrun its own choreography: the join/drain
	// timers fire at wall-clock offsets from start, so wait for each armed
	// action to be applied (with slack for its HTTP round-trip) before
	// judging the topology verdicts.
	if topoArmed {
		waitTopo := func(after time.Duration, what string, fired func() bool) {
			if after <= 0 {
				return
			}
			deadline := start.Add(after + 10*time.Second)
			for time.Now().Before(deadline) {
				topo.mu.Lock()
				ok := fired()
				topo.mu.Unlock()
				if ok {
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
			fmt.Fprintf(os.Stderr, "topology: %s never applied\n", what)
		}
		waitTopo(*joinAfter, "join", func() bool { return topo.joined })
		waitTopo(*drainAfter, "drain", func() bool { return topo.drainAccepted })
	}

	// Recovery wait: after chaos windows, the run is not over until every
	// replica reports its write-behind replay queue drained (and breaker
	// closed) and every failover session handed back (local == owned).
	var cw *chaosWindowsReport
	if windowsArmed {
		cw = &chaosWindowsReport{
			StoreOutageSec:   storeOutage.Seconds(),
			PartitionSec:     partitionFor.Seconds(),
			PartitionTarget:  partitionTarget,
			ReplayQueueFinal: -1,
		}
		recoverStart := time.Now()
		deadline := recoverStart.Add(90 * time.Second)
		for {
			drained, owned, reachable := true, true, true
			for _, u := range eps.snapshot() {
				var st statsResp
				if err := getJSON(client, u+"/v1/stats", &st); err != nil {
					reachable = false
					break
				}
				if st.WriteBehind != nil && (st.WriteBehind.Queue > 0 || st.WriteBehind.Breaker == "open") {
					drained = false
				}
				if st.Shard != nil && st.Shard.LocalSessions != st.Shard.OwnedSessions {
					owned = false
				}
			}
			if (reachable && drained && owned) || time.Now().After(deadline) {
				cw.HandedBack = reachable && owned
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		cw.RecoverySec = time.Since(recoverStart).Seconds()
		// Final sweep: aggregate the resilience counters across replicas.
		cw.ReplayQueueFinal = 0
		for _, u := range eps.snapshot() {
			var st statsResp
			if err := getJSON(client, u+"/v1/stats", &st); err != nil {
				cw.ReplayQueueFinal = -1 // unreachable replica: fail replay_drained
				continue
			}
			if wb := st.WriteBehind; wb != nil {
				if cw.ReplayQueueFinal >= 0 {
					cw.ReplayQueueFinal += wb.Queue
				}
				cw.ReplayEnqueued += wb.Enqueued
				cw.ReplayReplayed += wb.Replayed
				cw.ReplayDropped += wb.Dropped
				cw.ShedCreates += wb.Shed
				cw.PersistFailures += wb.PersistFailures
			}
			if st.Shard != nil {
				cw.Failovers += st.Shard.Failovers
			}
		}
		cw.Sheds503 = atomic.LoadInt64(&shed503)
		cw.Sheds503NoRA = atomic.LoadInt64(&shed503NoRA)
		fmt.Printf("\n── chaos windows ──\n")
		fmt.Printf("windows          store outage %v (all replicas), partition %v (%s)\n",
			*storeOutage, *partitionFor, partitionTarget)
		fmt.Printf("write-behind     %d enqueued, %d replayed, %d dropped, final queue %d, %d persist failures\n",
			cw.ReplayEnqueued, cw.ReplayReplayed, cw.ReplayDropped, cw.ReplayQueueFinal, cw.PersistFailures)
		fmt.Printf("admission        %d creates shed;  %d 503s (%d without Retry-After)\n",
			cw.ShedCreates, cw.Sheds503, cw.Sheds503NoRA)
		fmt.Printf("failover         %d failovers;  handed back %v;  recovery took %.1fs\n",
			cw.Failovers, cw.HandedBack, cw.RecoverySec)
	}

	// Cluster → dominant archetype, for assignment scoring.
	var stats statsResp
	if err := getEP(client, eps, "/v1/stats", &stats); err != nil {
		die(err)
	}

	completed, assignedRight, personalized := 0, 0, 0
	correct, monitored := 0, 0
	totalReassigns, reassignedSessions, flapped := 0, 0, 0
	var lifecycleSum float64
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "user failed: %v\n", r.err)
			continue
		}
		completed++
		lifecycleSum += r.lifecycleS
		if r.personalized {
			personalized++
		}
		if r.cluster >= 0 && r.cluster < len(stats.ClusterArchetypes) &&
			stats.ClusterArchetypes[r.cluster] == r.archetype {
			assignedRight++
		}
		totalReassigns += r.reassigns
		if r.reassigns > 0 {
			reassignedSessions++
		}
		if r.reassigns > 1 {
			flapped++
		}
		correct += r.correct
		monitored += r.monitored
	}

	latMu.Lock()
	sort.Float64s(latencies)
	latMu.Unlock()
	nw := len(latencies)

	rep := &loadgenReport{Schema: "clear-loadgen/1"}
	rep.Meta.Go = runtime.Version()
	rep.Meta.Addr = *addr
	rep.Meta.Users = *users
	rep.Meta.Concurrency = *conc
	rep.Meta.Trials = *trials
	rep.Meta.Seed = *seed
	rep.Meta.Chaos = *chaos
	rep.Meta.DriftUsers = *driftUsers
	rep.Serve.Windows = nw
	rep.Serve.ElapsedSec = elapsed.Seconds()
	rep.Serve.WindowsPerSec = float64(nw) / elapsed.Seconds()
	if nw > 0 {
		rep.Serve.P50US = 1000 * quantile(latencies, 0.50)
		rep.Serve.P95US = 1000 * quantile(latencies, 0.95)
		rep.Serve.P99US = 1000 * quantile(latencies, 0.99)
		rep.Serve.MaxUS = 1000 * latencies[nw-1]
	}
	rep.Serve.ShedsClient = sheds
	rep.Serve.ShedsServer = stats.Shed
	rep.Lifecycle.Completed = completed
	rep.Lifecycle.Personalized = personalized
	rep.Lifecycle.MeanLifecycleSec = lifecycleSum / math.Max(1, float64(completed))
	rep.Lifecycle.MonitoredWindows = monitored
	if monitored > 0 {
		rep.Lifecycle.MonitorAccPct = 100 * float64(correct) / float64(monitored)
	}
	rep.Lifecycle.Reassigned = reassignedSessions
	rep.Lifecycle.Flapped = flapped
	verdict := func(name string, pass bool, detail string) {
		rep.SLO = append(rep.SLO, sloVerdict{Name: name, Pass: pass, Detail: detail})
	}

	fmt.Printf("\n── loadgen report ──\n")
	fmt.Printf("users            %d/%d lifecycles completed (%.1f sessions/sec)\n",
		completed, *users, float64(completed)/elapsed.Seconds())
	fmt.Printf("windows          %d posted in %v (%.1f windows/sec)\n",
		nw, elapsed.Round(time.Millisecond), float64(nw)/elapsed.Seconds())
	if nw > 0 {
		fmt.Printf("window latency   p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
			quantile(latencies, 0.50), quantile(latencies, 0.95),
			quantile(latencies, 0.99), latencies[nw-1])
	}
	fmt.Printf("mean lifecycle   %.2fs (enrol → assign → finetune → monitor)\n",
		lifecycleSum/math.Max(1, float64(completed)))
	fmt.Printf("personalized     %d/%d sessions\n", personalized, completed)
	if completed > 0 {
		fmt.Printf("assignment acc   %.0f%% (cold-start cluster matches ground-truth archetype)\n",
			100*float64(assignedRight)/float64(completed))
	}
	if monitored > 0 {
		fmt.Printf("monitor acc      %.1f%% over %d classified windows\n",
			100*float64(correct)/float64(monitored), monitored)
	}
	fmt.Printf("sheds (client)   %d retried;  server shed counter %d\n", sheds, stats.Shed)
	if *driftUsers > 0 || totalReassigns > 0 {
		fmt.Printf("self-healing     %d sessions re-assigned (%d swaps, %d flapped);  server verdicts %d, re-assigns %d, suppressed %d\n",
			reassignedSessions, totalReassigns, flapped,
			stats.DriftVerdicts, stats.DriftReassigns, stats.DriftSuppressed)
	}

	traceFailed := false
	if traceCheck.every > 0 {
		sent := atomic.LoadInt64(&traceCheck.sent)
		mm := atomic.LoadInt64(&traceCheck.mismatch)
		res := atomic.LoadInt64(&traceCheck.errResolved)
		miss := atomic.LoadInt64(&traceCheck.errMissing)
		fmt.Printf("tracing          %d requests traced, %d echo mismatches;  error traces: %d resolved, %d unresolvable\n",
			sent, mm, res, miss)
		if mm > 0 || miss > 0 {
			fmt.Println("TRACE FAIL: every traced response must echo its trace id and every traced error must resolve via /v1/traces")
			traceFailed = true
		}
		rep.Tracing = &tracingReport{Sent: sent, Mismatches: mm, ErrResolved: res, ErrMissing: miss}
		verdict("trace_roundtrip", !traceFailed,
			fmt.Sprintf("%d traced, %d mismatches, %d unresolvable error traces", sent, mm, miss))
	}

	// Cross-node stitch probe: with tracing armed and a multi-replica
	// pool, a forwarded request's trace must resolve at a non-owner
	// replica as one tree spanning both hops.
	stitchFailed := false
	if traceCheck.every > 0 && len(eps.snapshot()) >= 2 {
		pass, detail := probeTraceStitch(client, eps.snapshot())
		fmt.Printf("trace stitch     %s\n", detail)
		if !pass {
			fmt.Println("TRACE FAIL: a forwarded request's trace must resolve at a non-owner replica with spans from >=2 nodes")
			stitchFailed = true
		}
		if rep.Tracing != nil {
			ok := pass
			rep.Tracing.Stitched = &ok
		}
		verdict("trace_stitched", pass, detail)
	}

	assignAcc := 100.0
	if completed > 0 {
		assignAcc = 100 * float64(assignedRight) / float64(completed)
	}
	rep.Lifecycle.AssignAccPct = assignAcc

	// Chaos-window SLOs: zero lifecycle loss through the windows, replay
	// queues drained to zero, failover sessions handed back, and every
	// shed carrying a Retry-After hint.
	cwFailed := false
	if cw != nil {
		rep.ChaosWindows = cw
		cwVerdict := func(name string, pass bool, detail string) {
			verdict(name, pass, detail)
			if !pass {
				fmt.Printf("SLO FAIL: %s: %s\n", name, detail)
				cwFailed = true
			}
		}
		cwVerdict("no_lifecycle_loss", completed >= *users,
			fmt.Sprintf("%d/%d lifecycles completed through the chaos windows", completed, *users))
		cwVerdict("replay_drained", cw.ReplayQueueFinal == 0 && cw.ReplayDropped == 0,
			fmt.Sprintf("final queue %d, %d dropped (%d enqueued, %d replayed)",
				cw.ReplayQueueFinal, cw.ReplayDropped, cw.ReplayEnqueued, cw.ReplayReplayed))
		cwVerdict("handed_back", cw.HandedBack,
			fmt.Sprintf("local == owned on all replicas: %v (%d failovers)", cw.HandedBack, cw.Failovers))
		cwVerdict("shed_retry_after", cw.Sheds503NoRA == 0,
			fmt.Sprintf("%d of %d 503s missing Retry-After", cw.Sheds503NoRA, cw.Sheds503))
	}

	// Topology verdicts: zero loss through the join, a clean drain, and
	// minimal ring movement (consistent hashing's 1/N promise).
	topoFailed := false
	if topoArmed {
		tVerdict := func(name string, pass bool, detail string) {
			verdict(name, pass, detail)
			if !pass {
				fmt.Printf("SLO FAIL: %s: %s\n", name, detail)
				topoFailed = true
			}
		}
		fmt.Printf("\n── topology report ──\n")
		n5xx := atomic.LoadInt64(&srvErrs)
		topo.mu.Lock()
		joined, joinEpoch := topo.joined, topo.joinEpoch
		drainTarget, drainAccepted, preDrainEpoch := topo.drainTarget, topo.drainAccepted, topo.preDrainEpoch
		initMembers := topo.initMembers
		topo.mu.Unlock()
		if *joinAfter > 0 {
			tVerdict("zero_loss_on_join", joined && completed >= *users && n5xx == 0,
				fmt.Sprintf("join applied %v (epoch %d); %d/%d lifecycles, %d unexpected 5xx",
					joined, joinEpoch, completed, *users, n5xx))
			// Minimal movement: re-derive ownership of this run's real
			// session IDs under the pre- and post-join rings with the
			// server's own ring arithmetic; consistent hashing should move
			// about 1/N of them, and never wholesale reshuffle.
			pre := shard.New(initMembers, 0)
			post := pre.With(strings.TrimRight(*joinNode, "/"))
			moved, totalIDs := 0, 0
			for _, r := range results {
				if r.id == "" {
					continue
				}
				totalIDs++
				if pre.Owner(r.id) != post.Owner(r.id) {
					moved++
				}
			}
			frac := 0.0
			if totalIDs > 0 {
				frac = float64(moved) / float64(totalIDs)
			}
			bound := 1.6 / float64(post.Len())
			fmt.Printf("movement         %d/%d session owners changed across the join (bound %.0f%%)\n",
				moved, totalIDs, 100*bound)
			tVerdict("minimal_movement", totalIDs > 0 && frac <= bound,
				fmt.Sprintf("%d/%d sessions moved (%.0f%% vs bound %.0f%%)",
					moved, totalIDs, 100*frac, 100*bound))
		}
		if *drainAfter > 0 {
			// Settle: the drained replica must report zero remaining (and
			// not incomplete), and every survivor must exclude it from the
			// ring at an epoch past the pre-drain one.
			clean := false
			cleanDetail := "drain request was not accepted"
			if drainAccepted {
				deadline := time.Now().Add(30 * time.Second)
				for time.Now().Before(deadline) {
					drainedOK := false
					var st statsResp
					if err := getJSON(client, drainTarget+"/v1/stats", &st); err == nil && st.Membership != nil {
						m := st.Membership
						drainedOK = m.Draining && m.DrainRemaining == 0 && !m.DrainIncomplete
						cleanDetail = fmt.Sprintf("drained node: remaining %d, handed off %d, incomplete %v",
							m.DrainRemaining, m.DrainHandedOff, m.DrainIncomplete)
					}
					survivorsOK := true
					for _, u := range eps.snapshot() {
						var mv membershipResp
						if err := getJSON(client, u+"/v1/membership", &mv); err != nil {
							survivorsOK = false
							break
						}
						excluded := true
						for _, m := range mv.Members {
							if m == drainTarget {
								excluded = false
							}
						}
						if !excluded || mv.Epoch <= preDrainEpoch {
							survivorsOK = false
							break
						}
					}
					if drainedOK && survivorsOK {
						clean = true
						break
					}
					time.Sleep(100 * time.Millisecond)
				}
			}
			tVerdict("drain_clean", clean,
				fmt.Sprintf("%s; survivors exclude %s past epoch %d: %v",
					cleanDetail, drainTarget, preDrainEpoch, clean))
		}
	}
	if *chaos {
		tally.mu.Lock()
		fmt.Printf("\n── chaos report ──\n")
		fmt.Printf("client faults    %d windows corrupted (%d rejected+resent, %d timeouts absorbed)\n",
			tally.dropped, tally.rejected, tally.timeouts)
		fmt.Printf("server repair    %d windows imputed;  %d degraded inferences observed\n",
			tally.imputed, tally.degraded)
		fmt.Printf("server counters  corrupt %d, imputed %d, ft retries %d, ft giveups %d, restored %d\n",
			stats.CorruptWindows, stats.ImputedWindows, stats.FineTuneRetries,
			stats.FineTuneGiveups, stats.RestoredSessions)
		fmt.Printf("breakers         final %v (open seen: %v, re-closed: %v)\n",
			stats.Breakers, tally.sawOpen, tally.reclosed)
		failed := false
		n := atomic.LoadInt64(&srvErrs)
		if n > 0 {
			fmt.Printf("SLO FAIL: %d unexpected 5xx server errors\n", n)
			failed = true
		}
		verdict("no_5xx", n == 0, fmt.Sprintf("%d unexpected 5xx responses", n))
		if completed < *users {
			fmt.Printf("SLO FAIL: only %d/%d lifecycles completed under fault load\n", completed, *users)
			failed = true
		}
		verdict("lifecycles_complete", completed >= *users,
			fmt.Sprintf("%d/%d completed", completed, *users))
		if assignAcc < *accFloor {
			fmt.Printf("SLO FAIL: assignment accuracy %.0f%% below floor %.0f%%\n", assignAcc, *accFloor)
			failed = true
		}
		verdict("assign_accuracy", assignAcc >= *accFloor,
			fmt.Sprintf("%.0f%% vs floor %.0f%%", assignAcc, *accFloor))
		if *expectBreaker {
			cycled := tally.sawOpen && tally.reclosed
			if !cycled {
				fmt.Printf("SLO FAIL: no breaker open→re-close cycle observed (open %v, reclosed %v)\n",
					tally.sawOpen, tally.reclosed)
				failed = true
			}
			verdict("breaker_cycle", cycled,
				fmt.Sprintf("open seen %v, re-closed %v", tally.sawOpen, tally.reclosed))
		}
		if *expectReassign {
			if reassignedSessions < 1 {
				fmt.Printf("SLO FAIL: no detector re-assignment observed across %d drift personas\n", *driftUsers)
				failed = true
			}
			if flapped > 0 {
				fmt.Printf("SLO FAIL: %d sessions flapped (re-assigned more than once)\n", flapped)
				failed = true
			}
			verdict("drift_reassign", reassignedSessions >= 1 && flapped == 0,
				fmt.Sprintf("%d re-assigned, %d flapped", reassignedSessions, flapped))
		}
		tally.mu.Unlock()
		rep.Pass = !failed && !traceFailed && !stitchFailed && !cwFailed && !topoFailed
		if *jsonOut != "" {
			writeReport(*jsonOut, rep)
		}
		if !rep.Pass {
			os.Exit(1)
		}
		fmt.Println("all chaos SLOs held")
		return
	}
	verdict("lifecycles_complete", completed >= *users,
		fmt.Sprintf("%d/%d completed", completed, *users))
	n := atomic.LoadInt64(&srvErrs)
	verdict("no_5xx", n == 0, fmt.Sprintf("%d unexpected 5xx responses", n))
	rep.Pass = completed >= *users && n == 0 && !traceFailed && !stitchFailed && !cwFailed && !topoFailed
	if *jsonOut != "" {
		writeReport(*jsonOut, rep)
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

// runUser drives one full lifecycle. In chaos mode it corrupts windows
// client-side at the configured rate, re-sends the clean copy when the
// server rejects one as unrecoverable (422, a client "re-read"), and
// absorbs inference timeouts (504) instead of failing the lifecycle.
func runUser(client *http.Client, eps *endpoints, v *wemac.Volunteer, um *wemac.UserMaps,
	ftFrac float64, keep bool, observe func(time.Duration, int),
	chaos chaosCfg, rng *rand.Rand, tally *chaosTally) userResult {

	res := userResult{cluster: -1, archetype: v.Archetype, drifter: v.DriftTo >= 0}
	total := len(v.Trials)
	var cr createResp
	if _, err := postRetry(client, eps, "/v1/sessions",
		createReq{UserID: v.ID, ExpectedWindows: total}, &cr); err != nil {
		res.err = fmt.Errorf("create: %w", err)
		return res
	}
	res.id = cr.ID
	base := "/v1/sessions/" + cr.ID
	lifecycleStart := time.Now()

	// Labels cover the first ftFrac of post-assignment windows.
	ftN := int(ftFrac*float64(total) + 0.5)
	labels := map[int]int{}

	for t := 0; t < total; t++ {
		payload := windowPayload(v, um, t)
		corrupted := false
		if chaos.enabled && rng.Float64() < chaos.drop {
			payload = dropPayloadChannel(payload, rng.Intn(3))
			corrupted = true
			tally.mu.Lock()
			tally.dropped++
			tally.mu.Unlock()
		}
		var wr windowResp
		start := time.Now()
		shed, err := postRetry(client, eps, base+"/windows", payload, &wr)
		if chaos.enabled && err != nil {
			if he, ok := err.(*httpError); ok {
				switch he.code {
				case http.StatusUnprocessableEntity:
					// Unrecoverable server-side (no history yet): re-read
					// the sensor, i.e. re-send the clean window. The
					// server's own corruption injection can hit the re-send
					// too, so give it a few tries.
					tally.mu.Lock()
					tally.rejected++
					tally.mu.Unlock()
					for try := 0; try < 3; try++ {
						shed2 := 0
						shed2, err = postRetry(client, eps, base+"/windows", windowPayload(v, um, t), &wr)
						shed += shed2
						if he2, ok := err.(*httpError); !ok || he2.code != http.StatusUnprocessableEntity {
							break
						}
					}
				case http.StatusGatewayTimeout:
					// The window was ingested; only the answer is lost.
					tally.mu.Lock()
					tally.timeouts++
					tally.mu.Unlock()
					observe(time.Since(start), shed)
					continue
				}
			}
		}
		observe(time.Since(start), shed)
		if err != nil {
			res.err = fmt.Errorf("window %d: %w", t, err)
			return res
		}
		if chaos.enabled && (wr.Degraded || wr.Imputed || corrupted) {
			tally.mu.Lock()
			if wr.Degraded {
				tally.degraded++
			}
			if wr.Imputed {
				tally.imputed++
			}
			tally.mu.Unlock()
		}
		// Score cold-start assignment on the FIRST cluster the session
		// reports: a detector re-assignment mid-stream (drift personas)
		// must not rewrite the cold-start accuracy metric.
		if wr.Cluster != nil && res.cluster < 0 {
			res.cluster = *wr.Cluster
		}
		if wr.Reassigned {
			res.reassigns++
		}
		if len(wr.Probs) > 1 {
			res.monitored++
			pred := 0
			if wr.Probs[1] > wr.Probs[0] {
				pred = 1
			}
			if pred == int(v.Trials[t].Label) {
				res.correct++
			}
		}
		res.personalized = res.personalized || wr.Personalized

		// Right after assignment, upload the labelled budget and wait for
		// the personalised checkpoint before streaming on.
		if t == cr.AssignAt-1 && ftN > 0 {
			for j := t + 1 - ftN; j <= t; j++ {
				if j >= 0 {
					labels[j] = int(v.Trials[j].Label)
				}
			}
			var lr statusResp
			if _, err := postRetry(client, eps, base+"/labels",
				map[string]any{"labels": labels}, &lr); err != nil {
				res.err = fmt.Errorf("labels: %w", err)
				return res
			}
			if err := waitMonitoring(client, eps, base, chaos.enabled); err != nil {
				res.err = err
				return res
			}
		}
	}
	res.lifecycleS = time.Since(lifecycleStart).Seconds()
	res.ok = true
	if !keep {
		req, _ := http.NewRequest(http.MethodDelete, eps.pick()+base, nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	} else {
		res.base = base
	}
	return res
}

// windowPayload builds the window body: a precomputed map when available,
// raw signals otherwise.
func windowPayload(v *wemac.Volunteer, um *wemac.UserMaps, t int) map[string]any {
	if um != nil {
		m := um.Maps[t].Map
		return map[string]any{"map": map[string]any{
			"rows": m.Dim(0), "cols": m.Dim(1), "data": m.Data,
		}}
	}
	rec := v.Trials[t].Rec
	return map[string]any{"recording": map[string]any{
		"bvp": rec.BVP, "bvp_fs": rec.BVPFs,
		"gsr": rec.GSR, "gsr_fs": rec.GSRFs,
		"skt": rec.SKT, "skt_fs": rec.SKTFs,
	}}
}

// waitMonitoring polls the session until the fine-tune lands. In chaos
// mode a degraded session is also terminal: personalisation failed or was
// breaker-suppressed and the session is legitimately serving from the
// cluster baseline — the lifecycle continues rather than stalling on a
// checkpoint that may never arrive.
func waitMonitoring(client *http.Client, eps *endpoints, base string, tolerateDegraded bool) error {
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		var st statusResp
		if err := getEP(client, eps, base, &st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.State == "monitoring" || st.Personalized {
			return nil
		}
		if tolerateDegraded && st.Degraded {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("fine-tune did not complete within 5m")
}

// dropPayloadChannel simulates a dead sensor stream client-side: channel
// ch (0 BVP, 1 GSR, 2 SKT) is zeroed in a copy of the payload. For map
// payloads the channel's feature-row block goes to zero (JSON cannot carry
// NaN, so dead-channel is the transportable corruption; the server's own
// injector covers the NaN shapes); for recordings the raw samples do.
func dropPayloadChannel(payload map[string]any, ch int) map[string]any {
	if mp, ok := payload["map"].(map[string]any); ok {
		rows, cols := mp["rows"].(int), mp["cols"].(int)
		data := append([]float64(nil), mp["data"].([]float64)...)
		lo, hi := 0, rows
		if rows == features.TotalFeatureCount {
			switch ch % 3 {
			case 0:
				lo, hi = 0, features.BVPFeatureCount
			case 1:
				lo = features.BVPFeatureCount
				hi = lo + features.GSRFeatureCount
			case 2:
				lo = features.BVPFeatureCount + features.GSRFeatureCount
				hi = rows
			}
		}
		for i := lo; i < hi; i++ {
			for j := 0; j < cols; j++ {
				data[i*cols+j] = 0
			}
		}
		return map[string]any{"map": map[string]any{"rows": rows, "cols": cols, "data": data}}
	}
	rec, ok := payload["recording"].(map[string]any)
	if !ok {
		return payload
	}
	out := make(map[string]any, len(rec))
	for k, v := range rec {
		out[k] = v
	}
	zero := func(key string) {
		if s, ok := out[key].([]float64); ok {
			out[key] = make([]float64, len(s))
		}
	}
	switch ch % 3 {
	case 0:
		zero("bvp")
	case 1:
		zero("gsr")
	case 2:
		zero("skt")
	}
	return map[string]any{"recording": out}
}

// postRetry POSTs with bounded retry on 429 (shed back-pressure: pause,
// resend) and bounded endpoint rotation on transport errors/502/503 (the
// replica is down or restarting: try the next one). Every attempt picks
// the next endpoint round-robin; the router forwards per-session requests
// to the owning replica, so stickiness is unnecessary. Returns how many
// times the request was shed.
func postRetry(client *http.Client, eps *endpoints, path string, body any, out any) (int, error) {
	shed, rot := 0, 0
	for {
		err := postJSON(client, eps.pick()+path, body, out)
		if err == nil {
			return shed, nil
		}
		if he, ok := err.(*httpError); ok && he.code == http.StatusTooManyRequests && shed < 50 {
			shed++
			time.Sleep(time.Duration(10+5*shed) * time.Millisecond)
			continue
		}
		if rotatable(err) && rot < 4*len(eps.snapshot()) {
			rot++
			sleep := time.Duration(25*rot) * time.Millisecond
			// A 503 with Retry-After is admission control (durability at
			// risk, or a partition window just closed), not a dead replica:
			// honour the hint (capped) before coming back.
			if he, ok := err.(*httpError); ok && he.retryAfter > 0 {
				if ra := time.Duration(he.retryAfter) * time.Second; ra > sleep {
					sleep = ra
				}
				if sleep > 2*time.Second {
					sleep = 2 * time.Second
				}
			}
			time.Sleep(sleep)
			continue
		}
		return shed, err
	}
}

// getEP GETs with the same endpoint rotation as postRetry (GETs are
// idempotent, so rotation is always safe).
func getEP(client *http.Client, eps *endpoints, path string, out any) error {
	var err error
	for rot := 0; rot <= 4*len(eps.snapshot()); rot++ {
		if err = getJSON(client, eps.pick()+path, out); err == nil || !rotatable(err) {
			return err
		}
		time.Sleep(time.Duration(25*(rot+1)) * time.Millisecond)
	}
	return err
}

type httpError struct {
	code       int
	body       string
	retryAfter int // seconds, from the Retry-After header (0 = none)
}

func (e *httpError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.body) }

func postJSON(client *http.Client, url string, body, out any) error {
	js, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(js))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	tid := armTrace(req)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	checkTraceEcho(resp, tid)
	err = decodeJSON(resp, out)
	resolveErrTrace(client, url, tid, err)
	return err
}

func getJSON(client *http.Client, url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	tid := armTrace(req)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	checkTraceEcho(resp, tid)
	err = decodeJSON(resp, out)
	resolveErrTrace(client, url, tid, err)
	return err
}

func decodeJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable &&
			resp.StatusCode != http.StatusGatewayTimeout {
			atomic.AddInt64(&srvErrs, 1)
		}
		ra := 0
		if resp.StatusCode == http.StatusServiceUnavailable {
			atomic.AddInt64(&shed503, 1)
			if v := resp.Header.Get("Retry-After"); v != "" {
				ra, _ = strconv.Atoi(v)
			} else {
				atomic.AddInt64(&shed503NoRA, 1)
			}
		}
		return &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(raw)), retryAfter: ra}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// quantile reads a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "clear-loadgen:", err)
		os.Exit(1)
	}
}
