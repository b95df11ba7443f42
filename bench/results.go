package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one named number. N is the sample count behind it (0 for plain
// ratios); Note says when the sample was too small for the statistic to
// mean much.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// e2eSpec fixes an end-to-end metric's unit, direction and the bound by
// which it may worsen before a change counts as a regression. The bound is
// a share of the baseline value, except for failed_share, whose baseline
// is zero and whose bound is absolute.
type e2eSpec struct {
	name     string
	unit     string
	higher   bool
	bound    float64
	absolute bool
}

// The bounds are as wide as they are because the reference host is as
// noisy as it is: BENCHMARK.json carries one bound per metric for all
// workloads, and a bound below the run-to-run spread of the raw numbers
// would claim a resolution the machine does not have (see README.md).
var endToEnd = []e2eSpec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "windows_per_s", unit: "windows/s", higher: true, bound: 0.25},
	{name: "window_p50_us", unit: "us", bound: 0.25},
	{name: "window_p95_us", unit: "us", bound: 0.25},
	{name: "cpu_us_per_window", unit: "us", bound: 0.25},
	{name: "sessions_per_s", unit: "sessions/s", higher: true, bound: 0.25},
	{name: "personalize_p50_ms", unit: "ms", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", bound: 0.20},
	{name: "failed_share", unit: "ratio", bound: 0.001, absolute: true},
}

// slice is one measured phase of one workload, reduced to what the
// metrics need. Everything is as measured: wall-clock seconds, process CPU.
type slice struct {
	all   recorder // every caller's recorder merged
	wall  float64  // seconds, first caller started → last caller stopped
	cpuUS float64  // process user+sys CPU over the phase
	// sessionsPerS is the rate the closed loop sustains when every session
	// takes the median session's time: callers ÷ the p50 duration. A count
	// over the slice would follow how many of the seed's users the drift
	// detector re-assigns — such a lifecycle runs its fine-tune twice — and
	// that is the population's doing, reported as serve.reassigned_share.
	sessionsPerS float64

	mallocs   float64
	bytes     float64
	gcs       float64
	gcPauseMS float64
	calls     float64
	macs      float64
}

func newSlice(p *phase) *slice {
	all := p.merged()
	durS := make([]float64, len(all.sessDur))
	for i, d := range all.sessDur {
		durS[i] = float64(d) / 1e9
	}
	sort.Float64s(durS)
	p50, _ := percentile(durS, 0.50)
	return &slice{
		all:          all,
		sessionsPerS: ratio(float64(len(p.recs)), p50),
		wall:         p.after.at.Sub(p.before.at).Seconds(),
		cpuUS:        float64((p.after.cpu - p.before.cpu).Microseconds()),
		mallocs:      float64(p.after.mallocs - p.before.mallocs),
		bytes:        float64(p.after.bytes - p.before.bytes),
		gcs:          float64(p.after.gcs - p.before.gcs),
		gcPauseMS:    float64(p.after.gcPause-p.before.gcPause) / 1e6,
		calls:        float64(p.after.calls - p.before.calls),
		macs:         float64(p.after.macs - p.before.macs),
	}
}

// windowsPerS is acknowledged windows per wall second.
func (s *slice) windowsPerS() float64 { return ratio(float64(s.all.windows), s.wall) }

// perWindow divides one of the slice's totals by the windows it served.
func (s *slice) perWindow(total float64) float64 { return ratio(total, float64(s.all.windows)) }

// tally is what one phase sent and how much of it failed.
type tally struct {
	phase    string
	sent     int
	failed   int
	firstErr string
}

// wlResult collects one workload's rounds.
type wlResult struct {
	wl     *workload
	setupS []float64 // fixture + this workload's preparation, one per bring-up
	slices []*slice  // measured, tracing off
	// other holds the phases a single-workload run appends: the kind of
	// traffic the workload's own lacks (see env.other).
	other      []*slice
	liveHeapMB float64
	tallies    []tally
	windows    *windowStats // set by reduce
}

// windowStats are the nearest-rank percentiles of the window samples, µs.
// The per-layer ones pool the samples of all rounds. The two end-to-end
// ones are the median over the rounds of each round's own percentile: a
// pooled p95 is drawn from the slowest round alone whenever the host runs
// one round slower than the others, and swings with it.
type windowStats struct {
	p50, p95, p99      metric // caller-side latency, all rounds pooled
	roundP50, roundP95 metric // caller-side latency, median of the rounds
	queueWaitP50       metric
}

func windowStatsOf(slices []*slice) *windowStats {
	latOf := func(s *slice) []int64 { return s.all.lat }
	lat := pooled(slices, latOf, 1e3)
	return &windowStats{
		p50:          pctMetric("us", lat, 0.50),
		p95:          pctMetric("us", lat, 0.95),
		p99:          pctMetric("us", lat, 0.99),
		roundP50:     overRounds(slices, latOf, 0.50),
		roundP95:     overRounds(slices, latOf, 0.95),
		queueWaitP50: pctMetric("us", pooled(slices, func(s *slice) []int64 { return s.all.qwait }, 1e3), 0.50),
	}
}

// overRounds is the median, over the rounds, of each round's q-quantile of
// an ns sample, in µs. N counts the samples of all rounds; the metric is
// flagged when any round has fewer than ten samples beyond its quantile.
func overRounds(slices []*slice, pick func(*slice) []int64, q float64) metric {
	out := metric{Unit: "us"}
	vs := make([]float64, len(slices))
	for i, s := range slices {
		m := pctMetric("us", pooled([]*slice{s}, pick, 1e3), q)
		vs[i] = m.Value
		out.N += m.N
		if m.Note != "" {
			out.Note = m.Note + " in a round"
		}
	}
	out.Value = median(vs)
	return out
}

// reduce turns the window samples of the measured slices into the
// percentiles the metrics report and drops the samples, so that a live-heap
// reading taken afterwards holds none of them. Slices added later are not
// counted.
func (r *wlResult) reduce() {
	r.windows = windowStatsOf(r.slices)
	for _, s := range r.slices {
		s.all.lat, s.all.qwait = nil, nil
	}
}

func (r *wlResult) note(phase string, rec *recorder) {
	for i := range r.tallies {
		if r.tallies[i].phase == phase {
			t := &r.tallies[i]
			t.sent += rec.sent
			t.failed += rec.failed
			if t.firstErr == "" {
				t.firstErr = rec.firstErr
			}
			return
		}
	}
	r.tallies = append(r.tallies, tally{phase: phase, sent: rec.sent, failed: rec.failed, firstErr: rec.firstErr})
}

func (r *wlResult) attempted() (sent, failed int) {
	for _, t := range r.tallies {
		sent += t.sent
		failed += t.failed
	}
	return sent, failed
}

// pooled gathers an ns sample from every slice, sorted, in units of div ns.
func pooled(slices []*slice, pick func(*slice) []int64, div float64) []float64 {
	var out []float64
	for _, s := range slices {
		for _, v := range pick(s) {
			out = append(out, float64(v)/div)
		}
	}
	sort.Float64s(out)
	return out
}

// overSlices is the median, over the rounds, of one per-slice number.
func overSlices(slices []*slice, f func(*slice) float64) float64 {
	vs := make([]float64, len(slices))
	for i, s := range slices {
		vs[i] = f(s)
	}
	return median(vs)
}

// pctMetric is the nearest-rank q-quantile of a sorted sample, flagged
// when fewer than ten samples lie beyond it.
func pctMetric(unit string, sorted []float64, q float64) metric {
	v, enough := percentile(sorted, q)
	m := metric{Unit: unit, Value: v, N: len(sorted)}
	if !enough {
		m.Note = "fewer than ten samples beyond"
	}
	return m
}

func (m metric) named(name string) metric {
	m.Name = name
	return m
}

// endToEnd reduces the rounds to the user-visible numbers, as measured.
// Rates and the window percentiles are the median of the per-round values;
// personalize_p50_ms is nearest-rank over the lifecycles of all rounds
// pooled. All nine are computed for every workload; which of them a
// workload declares is workload.declares.
func (r *wlResult) endToEnd() []metric {
	if r.windows == nil {
		r.reduce()
	}
	// A single-workload run takes the numbers the workload's own traffic
	// cannot give from the phases appended to it: lifecycle numbers where
	// the workload streams windows, window numbers where it runs lifecycles.
	windows, ws, lifecycles := r.slices, r.windows, r.slices
	if len(r.other) > 0 && r.wl.kind == kindColdstart {
		windows, ws = r.other, windowStatsOf(r.other)
	} else if len(r.other) > 0 {
		lifecycles = r.other
	}
	personalize := pooled(lifecycles, func(s *slice) []int64 { return s.all.personalize }, 1e6)
	sent, failed := r.attempted()
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(r.setupS), N: len(r.setupS)},
		{Name: "windows_per_s", Unit: "windows/s", Value: overSlices(windows, (*slice).windowsPerS), N: len(windows)},
		ws.roundP50.named("window_p50_us"),
		ws.roundP95.named("window_p95_us"),
		{Name: "cpu_us_per_window", Unit: "us", Value: overSlices(windows, func(s *slice) float64 { return s.perWindow(s.cpuUS) }), N: len(windows)},
		{Name: "sessions_per_s", Unit: "sessions/s", Value: overSlices(lifecycles, func(s *slice) float64 { return s.sessionsPerS }), N: len(lifecycles)},
		pctMetric("ms", personalize, 0.50).named("personalize_p50_ms"),
		{Name: "live_heap_mb", Unit: "MB", Value: r.liveHeapMB},
		{Name: "failed_share", Unit: "ratio", Value: ratio(float64(failed), float64(sent)), N: sent},
	}
}

// counters are the per-layer numbers that cost nothing to collect: they
// come from the same untraced slices as the end-to-end metrics.
func (r *wlResult) counters() []metric {
	if r.windows == nil {
		r.reduce()
	}
	var all recorder
	for _, s := range r.slices {
		all.merge(&s.all)
	}
	perWindow := func(total func(*slice) float64) float64 {
		return overSlices(r.slices, func(s *slice) float64 { return s.perWindow(total(s)) })
	}
	return []metric{
		r.windows.p50.named("serve.window_p50_us"),
		r.windows.p95.named("serve.window_p95_us"),
		r.windows.p99.named("serve.window_p99_us"),
		{Name: "serve.exec_mean_batch", Unit: "windows", Value: ratio(float64(all.batchSum), float64(all.batchN)), N: int(all.batchN)},
		r.windows.queueWaitP50.named("serve.exec_queue_wait_p50_us"),
		{Name: "serve.allocs_per_window", Unit: "allocs/window", Value: perWindow(func(s *slice) float64 { return s.mallocs })},
		{Name: "serve.bytes_per_window", Unit: "bytes/window", Value: perWindow(func(s *slice) float64 { return s.bytes })},
		{Name: "runtime.gc_cycles_per_kwindow", Unit: "cycles/kwindow", Value: 1000 * perWindow(func(s *slice) float64 { return s.gcs })},
		{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Value: overSlices(r.slices, func(s *slice) float64 { return ratio(s.gcPauseMS, s.wall) })},
		{Name: "tensor.macs_per_window", Unit: "macs/window", Value: perWindow(func(s *slice) float64 { return s.macs })},
		{Name: "tensor.matmul_calls_per_window", Unit: "calls/window", Value: perWindow(func(s *slice) float64 { return s.calls })},
		{Name: "serve.forwarded_share", Unit: "ratio", Value: ratio(float64(all.forwarded), float64(all.httpWindows)), N: all.httpWindows},
		{Name: "serve.personalized_share", Unit: "ratio", Value: ratio(float64(all.personal), float64(all.lifecycles)), N: all.lifecycles},
		{Name: "serve.reassigned_share", Unit: "ratio", Value: ratio(float64(all.reassigned), float64(all.lifecycles)), N: all.lifecycles},
		{Name: "quality.label_accuracy", Unit: "ratio", Value: ratio(float64(all.labelHit), float64(all.labelN)), N: all.labelN},
		{Name: "quality.ref_max_abs_diff", Unit: "abs", Value: all.maxDiff},
	}
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			extra += "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%-20s %-38s %14.6g %-14s%s\n", workload, m.Name, m.Value, m.Unit, extra)
	}
}
