package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The HTTP JSON API, every route the Server serves:
//
//	POST   /v1/sessions                enrol a new user
//	POST   /v1/sessions/{id}/windows   stream one signal window
//	POST   /v1/sessions/{id}/labels    attach ground-truth labels
//	GET    /v1/sessions/{id}           session status
//	DELETE /v1/sessions/{id}           close the session
//	GET    /v1/stats                   server aggregates
//	GET    /v1/slo                     burn-rate status + breach history
//	GET    /v1/traces/{id}             look a recorded request trace up
//	GET    /v1/events                  this node's cluster event journal
//	GET    /healthz                    liveness (untraced; router peers probe it)
//	POST   /v1/chaos                   arm fault windows (403 unless Config.ChaosAdmin)
//	GET    /metrics, /debug/...        the shared obs surface
//
// Router mode (router.go) adds the ring routes and overrides the
// per-session and trace routes on top of these.
//
// Typed serve errors map to status codes: ErrOverloaded → 429,
// ErrSessionNotFound/ErrTraceNotFound → 404, ErrSessionClosed → 409,
// ErrBadRequest → 400, ErrCorruptWindow → 422, ErrShutdown → 503,
// ErrTimeout → 504.
//
// Tracing: every /v1 request runs under an obs.Trace. An incoming W3C
// `traceparent` header is honoured (the caller's 128-bit trace id is
// adopted); otherwise a fresh id is minted. The response always carries
// `traceparent` and `X-Trace-Id` headers, error bodies echo the id in
// `trace_id`, and the trace is retained in a bounded tail-sampled store
// (errors always kept) queryable at /v1/traces/{id} with either the
// 32-hex or 16-hex id form.

// CreateSessionRequest is the POST /v1/sessions body.
type CreateSessionRequest struct {
	UserID int `json:"user_id"`
	// ExpectedWindows sizes the unlabeled cold-start budget.
	ExpectedWindows int `json:"expected_windows"`
	// AssignFrac overrides the server default when positive.
	AssignFrac float64 `json:"assign_frac,omitempty"`
}

// CreateSessionResponse echoes the new session.
type CreateSessionResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	AssignAt int    `json:"assign_at"`
}

// WindowPayload is the POST .../windows body: either raw signals (the
// server extracts the feature map, as an edge gateway would) or a
// precomputed F×W map from a client that extracts on-device.
type WindowPayload struct {
	Recording *RecordingPayload `json:"recording,omitempty"`
	Map       *MapPayload       `json:"map,omitempty"`
}

// RecordingPayload carries the three raw physiological channels.
type RecordingPayload struct {
	BVP   []float64 `json:"bvp"`
	BVPFs float64   `json:"bvp_fs"`
	GSR   []float64 `json:"gsr"`
	GSRFs float64   `json:"gsr_fs"`
	SKT   []float64 `json:"skt"`
	SKTFs float64   `json:"skt_fs"`
}

// MapPayload is a row-major F×W feature map.
type MapPayload struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// WindowResponse is the per-window answer.
type WindowResponse struct {
	State   string `json:"state"`
	Windows int    `json:"windows"`
	// Cluster/Scores/Margin appear from the assignment-triggering window
	// onward.
	Cluster *int      `json:"cluster,omitempty"`
	Scores  []float64 `json:"scores,omitempty"`
	Margin  *float64  `json:"margin,omitempty"`
	// Classification output (post-assignment windows).
	Probs        []float64 `json:"probs,omitempty"`
	RawProb      *float64  `json:"raw_prob,omitempty"`
	SmoothProb   *float64  `json:"smooth_prob,omitempty"`
	Alarm        *bool     `json:"alarm,omitempty"`
	Personalized bool      `json:"personalized"`
	// Degraded surfaces baseline-fallback serving (fine-tune failed or the
	// cluster's breaker is open); Imputed reports the window arrived
	// damaged and was repaired from session history; Reassigned marks the
	// window that confirmed a drift verdict and swapped the session onto
	// another cluster (Cluster already reflects the new assignment).
	Degraded    bool  `json:"degraded,omitempty"`
	Imputed     bool  `json:"imputed,omitempty"`
	Reassigned  bool  `json:"reassigned,omitempty"`
	BatchSize   int   `json:"batch_size,omitempty"`
	QueueWaitUS int64 `json:"queue_wait_us,omitempty"`
}

// LabelsPayload is the POST .../labels body: window arrival index →
// class.
type LabelsPayload struct {
	Labels map[int]int `json:"labels"`
}

// LabelsResponse reports the merged label set and whether a fine-tune
// started.
type LabelsResponse struct {
	State          string `json:"state"`
	Labeled        int    `json:"labeled"`
	FineTuneQueued bool   `json:"finetune_queued"`
}

type errorResponse struct {
	Error string `json:"error"`
	// TraceID is the short id of the request's trace, resolvable at
	// /v1/traces/{id} (error traces are always retained).
	TraceID string `json:"trace_id,omitempty"`
}

// Handler returns the server's HTTP API, with the obs observability
// surface (/metrics, /debug/metrics, /debug/pprof, /debug/spans) mounted
// on the same mux so one port serves both traffic and introspection.
func (s *Server) Handler() http.Handler { return s.chaosGate(s.mux()) }

// mux is the Server's one route table, ungated: Handler wraps it in the
// chaos gate, and Router.Handler passes every route it does not override
// through to it.
func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.traced("sessions", s.handleCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/windows", s.traced("windows", s.handleWindow))
	mux.HandleFunc("POST /v1/sessions/{id}/labels", s.traced("labels", s.handleLabels))
	mux.HandleFunc("GET /v1/sessions/{id}", s.traced("status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.traced("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/stats", s.traced("stats", s.handleStats))
	mux.HandleFunc("GET /v1/slo", s.traced("slo", s.handleSLO))
	mux.HandleFunc("GET /v1/traces/{id}", s.traced("traces", s.handleTrace))
	mux.HandleFunc("GET /v1/events", s.traced("events", s.handleEvents))
	// Liveness probe: cheap, untraced, used by router peers to build their
	// failover down-set.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/chaos", s.handleChaos)
	oh := obs.Handler()
	mux.Handle("/metrics", oh)
	mux.Handle("/debug/", oh)
	return mux
}

// HealthzResponse is the GET /healthz body. Beyond liveness, it carries
// the replica's ring epoch and member-set hash so the router's peer probe
// (and the janitor behind it) detects membership skew in the probe it was
// already making — a lagging replica pulls and adopts the newer view.
type HealthzResponse struct {
	Status string `json:"status"` // "ok" or "draining"
	// Epoch and MembersHash are the versioned-ring coordinates (router
	// mode only; 0/"" single-replica).
	Epoch       uint64 `json:"epoch,omitempty"`
	MembersHash string `json:"members_hash,omitempty"`
	// Draining reports graceful drain in progress: the replica has left
	// the ring and is handing sessions off, but still answers 200 — it
	// must keep serving owned sessions until the handoff completes.
	Draining bool `json:"draining,omitempty"`
}

// handleHealthz answers 200 while serving (including during a graceful
// drain — the replica still serves its not-yet-handed-off sessions), 503
// once full shutdown begins.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	resp := HealthzResponse{Status: "ok"}
	if rt := s.ring.Load(); rt != nil {
		ms := rt.membStats()
		resp.Epoch = ms.Epoch
		resp.MembersHash = ms.Hash
		resp.Draining = ms.Draining
		if ms.Draining {
			resp.Status = "draining"
		}
	}
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusWriter captures the response status for metrics/trace labeling.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// traced wraps a handler with the per-request observability envelope: it
// mints (or adopts, from an incoming traceparent) the request trace,
// echoes traceparent/X-Trace-Id on the response, carries the trace
// through ctx so every downstream stage scopes its spans to this request,
// records endpoint/code-labeled metrics, logs the request, and retains
// the finished trace in the tail-sampled store.
func (s *Server) traced(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTraceFromParent("http."+endpoint, r.Header.Get("traceparent"))
		ctx := obs.WithTrace(r.Context(), tr)
		// Stage attribution rides the windows endpoint (the serving hot
		// path): the timer starts here, layers add their stages via ctx,
		// and the flush below both feeds stage_latency_us{stage,cluster}
		// and becomes the request's http_latency_us observation — one
		// clock, so the reconciliation invariant is exact up to per-stage
		// µs truncation.
		var st *obs.StageTimer
		if endpoint == "windows" {
			st = obs.NewStageTimer()
			ctx = obs.WithStageTimer(ctx, st)
		}
		// Headers go out before the handler writes anything.
		w.Header().Set("traceparent", tr.Traceparent())
		w.Header().Set("X-Trace-Id", tr.ID().Short())
		sw := &statusWriter{ResponseWriter: w}
		// The handler runs under a `handle` span so every segment of a
		// cross-node trace carries at least one locally-recorded span — the
		// federated stitcher attributes it to this replica.
		sp := tr.Start("handle")
		h(sw, r.WithContext(ctx))
		sp.End()
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		if code >= 400 {
			tr.MarkError()
		}
		durUS := time.Since(start).Microseconds()
		if st != nil {
			total, stages := st.FlushTo(hStageUS)
			tr.RecordStages(stages)
			durUS = total.Microseconds()
		}
		s.traces.Add(tr)
		mHTTPReqVec.With(endpoint, strconv.Itoa(code)).Inc()
		hHTTPLatVec.With(endpoint).Observe(float64(durUS))
		obs.Log(ctx).Debug("http request",
			"method", r.Method, "endpoint", endpoint, "path", r.URL.Path,
			"code", code, "dur_us", durUS)
	}
}

// EventsResponse is the GET /v1/events body: this node's journal segment
// plus its ring accounting.
type EventsResponse struct {
	Node    string             `json:"node"`
	Journal obs.JournalStats   `json:"journal"`
	Events  []obs.JournalEvent `json:"events"`
}

// handleEvents serves the node's cluster event journal, oldest-first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, EventsResponse{
		Node:    s.cfg.Self,
		Journal: s.journal.Stats(),
		Events:  s.journal.Events(),
	})
}

// handleTrace serves a recorded trace snapshot by 32- or 16-hex id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.traces.Get(id)
	if !ok {
		writeError(w, r, fmt.Errorf("%w: %q", ErrTraceNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	sess, err := s.CreateSessionCtx(r.Context(), req.UserID, req.ExpectedWindows, req.AssignFrac)
	if err != nil {
		writeError(w, r, err)
		return
	}
	st := sess.Status()
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID: sess.ID(), State: st.State, AssignAt: st.AssignAt,
	})
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	st := obs.StageTimerOf(r.Context())
	sess, err := s.SessionCtx(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	stopDecode := st.Time(obs.StageDecode)
	var payload WindowPayload
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		stopDecode()
		writeError(w, r, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	m, err := s.decodeWindow(&payload)
	stopDecode()
	if err != nil {
		writeError(w, r, err)
		return
	}
	res, err := sess.PushWindowCtx(r.Context(), m)
	if err != nil {
		writeError(w, r, err)
		return
	}
	resp := WindowResponse{
		State:        res.State.String(),
		Windows:      res.Windows,
		Personalized: res.Personalized,
		Degraded:     res.Degraded,
		Imputed:      res.Imputed,
		Reassigned:   res.Reassigned,
		BatchSize:    res.BatchSize,
		QueueWaitUS:  res.QueueWait.Microseconds(),
		Probs:        res.Probs,
	}
	if res.Assignment != nil {
		c := res.Assignment.Cluster
		mg := res.Assignment.Margin()
		resp.Cluster = &c
		resp.Scores = res.Assignment.Scores
		resp.Margin = &mg
	}
	if res.Event != nil {
		raw, smooth, alarm := res.Event.RawProb, res.Event.SmoothProb, res.Event.Alarm
		resp.RawProb = &raw
		resp.SmoothProb = &smooth
		resp.Alarm = &alarm
	}
	stopEncode := st.Time(obs.StageEncode)
	writeJSON(w, http.StatusOK, resp)
	stopEncode()
}

// handleSLO serves the burn-rate tracker's status plus the breach/capture
// history.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.SLOReportNow())
}

// decodeWindow turns a payload into the raw feature map the session
// ingests, extracting from raw signals when that's what arrived.
func (s *Server) decodeWindow(p *WindowPayload) (*tensorT, error) {
	switch {
	case p.Recording != nil:
		rec := &features.Recording{
			BVP: p.Recording.BVP, BVPFs: p.Recording.BVPFs,
			GSR: p.Recording.GSR, GSRFs: p.Recording.GSRFs,
			SKT: p.Recording.SKT, SKTFs: p.Recording.SKTFs,
		}
		m, err := features.ExtractMap(rec, s.pipe.Cfg.Extractor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return m, nil
	case p.Map != nil:
		if p.Map.Rows*p.Map.Cols != len(p.Map.Data) || p.Map.Rows < 1 || p.Map.Cols < 1 {
			return nil, fmt.Errorf("%w: map dims %dx%d don't match %d values",
				ErrBadRequest, p.Map.Rows, p.Map.Cols, len(p.Map.Data))
		}
		m := tensor.New(p.Map.Rows, p.Map.Cols)
		copy(m.Data, p.Map.Data)
		return m, nil
	}
	return nil, fmt.Errorf("%w: window needs a recording or a map", ErrBadRequest)
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	sess, err := s.SessionCtx(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	var payload LabelsPayload
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		writeError(w, r, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	res, err := sess.PushLabelsCtx(r.Context(), payload.Labels)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, LabelsResponse{
		State: res.State.String(), Labeled: res.Labeled, FineTuneQueued: res.FineTuneQueued,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, err := s.SessionCtx(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseSessionCtx(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeError maps typed serve errors to HTTP status codes. The response
// body carries the request's trace id so a client holding a failed
// response can resolve the full trace at /v1/traces/{id}.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, ErrTraceNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrSessionClosed):
		code = http.StatusConflict
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrCorruptWindow):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrShutdown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		// Graceful drain sheds only creates; another replica accepts the
		// session after one Retry-After hop.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrNotDurable), errors.Is(err, ErrStoreUnavailable):
		// Durability admission control / store-outage hydration: shed with
		// an explicit retry hint — the condition clears when the replay
		// queue drains or the store recovers.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrTimeout):
		code = http.StatusGatewayTimeout
	}
	resp := errorResponse{Error: err.Error()}
	if t := obs.TraceOf(r.Context()); t != nil {
		resp.TraceID = t.ID().Short()
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
