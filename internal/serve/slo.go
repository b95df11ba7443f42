package serve

// Server-side SLO wiring: feeds the obs.SLOTracker from the serving HTTP
// metric families, serves its status at /v1/slo, and turns a fast burn
// into diagnosis artefacts — a CPU/heap pprof pair in the bounded capture
// ring plus an always-kept "slo.breach" trace in the trace store — so the
// operator's path from "budget is burning" to "here is the profile and
// the stage that regressed" never requires shelling into the box.

import (
	"context"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// SLOEvent is one recorded fast-burn breach and what was captured for it.
type SLOEvent struct {
	TMS int64 `json:"t_ms"`
	// TraceID is the short id of the "slo.breach" trace stamped into the
	// trace store (errored, so tail-sampling always keeps it).
	TraceID string `json:"trace_id"`
	// Burning names the objectives that were breaching when the event
	// fired.
	Burning []string `json:"burning"`
	// Capture is the pprof pair written for this breach (absent when the
	// capture ring is disabled or the storm guard suppressed it).
	Capture *obs.ProfileCapture `json:"capture,omitempty"`
}

// maxSLOEvents bounds the remembered breach history.
const maxSLOEvents = 32

// SLOReport is the GET /v1/slo payload.
type SLOReport struct {
	Enabled    bool                 `json:"enabled"`
	SLO        *obs.SLOStatus       `json:"slo,omitempty"`
	ProfileDir string               `json:"profile_dir,omitempty"`
	Captures   []obs.ProfileCapture `json:"captures,omitempty"`
	Events     []SLOEvent           `json:"events,omitempty"`
}

// startSLO builds the profile capturer and the burn-rate tracker from the
// server config. Called once from New.
func (s *Server) startSLO() error {
	if s.cfg.ProfileDir != "" {
		const profileMax = 8 // capture ring size in cpu+heap pairs
		pc, err := obs.NewProfileCapturer(s.cfg.ProfileDir, profileMax, s.cfg.ProfileCPUDur)
		if err != nil {
			return err
		}
		pc.SetMinGap(s.cfg.ProfileMinGap)
		s.profcap = pc
	}
	// The objectives themselves (availability 0.999, latency target 0.99,
	// fast burn 10×) are obs.SLOConfig's defaults.
	s.slo = obs.NewSLOTracker(obs.SLOConfig{
		LatencyBoundUS: s.cfg.SLOLatencyBoundUS,
		ShortWindow:    s.cfg.SLOShortWindow,
		LongWindow:     s.cfg.SLOLongWindow,
		Interval:       s.cfg.SLOInterval,
		MinEvents:      s.cfg.SLOMinEvents,
	}, sloSample(s.cfg.SLOLatencyBoundUS))
	s.slo.OnFastBurn(s.onSLOBreach)
	s.slo.Start()
	return nil
}

// sloSample snapshots the cumulative request/latency counts the tracker
// diffs. Availability reads serve.http_requests{endpoint,code} (5xx =
// bad); latency reads serve.http_latency_us{endpoint} at the objective
// bound, which sits on a bucket edge so CumulativeCount is exact.
func sloSample(boundUS float64) func() obs.SLOSample {
	return func() obs.SLOSample {
		var out obs.SLOSample
		mHTTPReqVec.Each(func(values []string, c *obs.Counter) {
			n := c.Value()
			out.Total += n
			if code, err := strconv.Atoi(values[1]); err == nil && code >= 500 {
				out.Errors += n
			}
		})
		hHTTPLatVec.Each(func(_ []string, h *obs.Histogram) {
			out.LatTotal += h.Count()
			out.LatUnder += h.CumulativeCount(boundUS)
		})
		return out
	}
}

// onSLOBreach is the tracker's fast-burn callback: capture a pprof pair,
// stamp a breach trace, remember the event.
func (s *Server) onSLOBreach(st obs.SLOStatus) {
	var burning []string
	for _, o := range st.Objectives {
		if o.Breaching {
			burning = append(burning, o.Name)
		}
	}
	reason := "slo-fast-burn:" + strings.Join(burning, ",")

	tr := obs.NewTrace("slo.breach")
	sp := tr.Start("slo.capture")
	var capture *obs.ProfileCapture
	if rec, ok := s.profcap.Capture(reason); ok {
		capture = &rec
	}
	sp.End()
	tr.MarkError() // errored traces bypass tail-sampling: breaches are always resolvable
	s.traces.Add(tr)

	ev := SLOEvent{
		TMS:     time.Now().UnixMilli(),
		TraceID: tr.ID().Short(),
		Burning: burning,
		Capture: capture,
	}
	s.sloEvMu.Lock()
	s.sloEvents = append(s.sloEvents, ev)
	if len(s.sloEvents) > maxSLOEvents {
		s.sloEvents = s.sloEvents[len(s.sloEvents)-maxSLOEvents:]
	}
	s.sloEvMu.Unlock()

	s.journal.Record(obs.WithTrace(context.Background(), tr), "slo_breach",
		"burning=%s", strings.Join(burning, ","))

	lg := obs.Log(obs.WithTrace(context.Background(), tr))
	if capture != nil {
		lg.Warn("slo fast burn", "burning", strings.Join(burning, ","),
			"trace", ev.TraceID, "cpu_profile", capture.CPUFile, "heap_profile", capture.HeapFile)
	} else {
		lg.Warn("slo fast burn", "burning", strings.Join(burning, ","), "trace", ev.TraceID)
	}
}

// SLOReportNow snapshots the SLO surface (GET /v1/slo).
func (s *Server) SLOReportNow() SLOReport {
	st := s.slo.Status()
	rep := SLOReport{Enabled: true, SLO: &st}
	if s.profcap != nil {
		rep.ProfileDir = s.profcap.Dir()
		rep.Captures = s.profcap.List()
	}
	s.sloEvMu.Lock()
	rep.Events = append([]SLOEvent(nil), s.sloEvents...)
	s.sloEvMu.Unlock()
	return rep
}

// publishKernelGauges pushes the tensor kernel op counters onto the obs
// registry; the runtime sampler calls it on its cadence so /metrics shows
// cumulative matmul calls and MACs (an accelerator-utilisation signal).
func publishKernelGauges() {
	calls, macs := tensor.OpStats()
	gMatmulCalls.Set(float64(calls))
	gMatmulMACs.Set(float64(macs))
}

var (
	gMatmulCalls = obs.GetGauge("tensor.matmul_calls")
	gMatmulMACs  = obs.GetGauge("tensor.matmul_macs")
)

// KernelSampleHook returns the onSample hook binaries hand to
// obs.StartRuntimeSampler so kernel gauges refresh with the runtime ones.
func KernelSampleHook() func() { return publishKernelGauges }
