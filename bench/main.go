// Command bench is the repository's benchmark: five named workloads, nine
// end-to-end metrics and a layer ladder, in one command that also checks
// that what the servers answered is correct. See README.md beside this
// file for the workloads, the metrics and how they are expected to move
// together.
//
//	go run ./bench -seed 17            the full set: 3 rounds, traced pass, ladder
//	go run ./bench -quick              a smoke run of the harness (numbers mean nothing)
//	go run ./bench -aa 2               the full set twice, compared against the bounds
//	go run ./bench -workload monitor_fleet -seed 3 -seconds 10 -trace 0
//	                                   one workload, 3 rounds of 10/3 s, one JSON line last
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
)

type options struct {
	seed     int64
	rounds   int
	slice    time.Duration
	warm     time.Duration
	traced   time.Duration // length of a traced slice
	quick    bool
	traceOut string
	aa       int

	// The single-workload protocol BENCHMARK.json names: run only workload,
	// measure for seconds in all, and end with one JSON line carrying the
	// end-to-end metrics (trace 0) or the per-layer metrics (trace 1).
	workload string
	seconds  int
	trace    int
}

// protocolRounds is how many rounds a single-workload run splits its
// seconds into. Every round sets up from scratch, so setup_s is a median
// of that many set-ups and the rates a median of that many slices.
const protocolRounds = 3

// otherPhase is how long a single-workload run drives, after each measured
// slice, the kind of traffic the workload's own lacks. A lifecycle takes
// most of a second and every caller finishes the one it is in, so a phase
// yields about two per caller.
const otherPhase = time.Second

// sliceFor is how long a slice of nominal length d runs on wl: a full run
// stretches it by the workload's factor, the protocol fixes the seconds
// measured.
func (o options) sliceFor(wl *workload, d time.Duration) time.Duration {
	if o.workload != "" {
		return d
	}
	return time.Duration(float64(d) * wl.stretch)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 17, "seed the population and every input are generated from")
	fs.IntVar(&o.rounds, "rounds", 3, "round-robin rounds over the workloads")
	fs.DurationVar(&o.slice, "slice", 5*time.Second, "measured slice per workload per round (coldstart_lifecycle runs 1.6x this)")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: 1 round, 0.5s slices, short ladder, shortened fine-tune")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(os.TempDir(), "clear-bench-trace.jsonl"), "where the traced pass writes its spans")
	fs.IntVar(&o.aa, "aa", 0, "run the full set N times and compare the runs against the bounds (N >= 2)")
	fs.StringVar(&o.workload, "workload", "", "run only this workload for -seconds and print one JSON result line last")
	fs.IntVar(&o.seconds, "seconds", 10, "with -workload: seconds measured in all, split over 3 rounds")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.warm, o.traced = time.Second, 3*time.Second
	if o.quick {
		o.rounds, o.slice, o.warm, o.traced = 1, 500*time.Millisecond, 100*time.Millisecond, 300*time.Millisecond
	}
	if o.workload != "" {
		if o.seconds < 1 {
			fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
			return 2
		}
		o.rounds = protocolRounds
		o.slice = time.Duration(o.seconds) * time.Second / protocolRounds
		o.traced = o.slice
	}
	// The servers log through obs; formatting cost stays in the
	// measurement, terminal I/O does not.
	obs.SetLogWriter(io.Discard)

	var err error
	switch {
	case o.workload != "":
		err = protocolRun(o, stdout)
	case o.aa >= 2:
		err = aaRun(o, stdout)
	case o.aa != 0:
		err = errors.New("-aa needs at least 2 runs to compare")
	default:
		var rep *report
		if rep, err = fullRun(o, stdout); err == nil {
			err = rep.verdict()
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// stamp says what produced the numbers.
func stamp(o options) string {
	commit := "unknown"
	// go run does not embed VCS info, so ask git; outside a work tree the
	// commit stays unknown. A single-workload run is the driver's, in an
	// exported checkout that is no work tree: it starts no process and
	// lets none search the directories above the checkout.
	if o.workload == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	only := ""
	if o.workload != "" {
		only = fmt.Sprintf(" workload=%s trace=%d", o.workload, o.trace)
	}
	return fmt.Sprintf("go=%s nproc=%d gomaxprocs=%d seed=%d rounds=%d slice=%v%s quick=%v commit=%s store_fs=%s tmp=%s",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.rounds, o.slice, only, o.quick,
		commit, fsType(os.TempDir()), os.TempDir())
}

// report is one run of the command.
type report struct {
	workloads []workload
	e2e       map[string][]metric // by workload: every end-to-end metric the run could measure
	layers    map[string][]metric // by workload: counters, traced pass, tracing overhead
	ladder    []metric
	tallies   map[string][]tally
}

// bench holds one fixture and what was derived from it.
type bench struct {
	o  options
	fx *fixture
	// fixtureS is the fixture's build time, the shared part of every
	// workload's setup_s.
	fixtureS float64
	refs     map[string]refTable // by device name
}

func newBench(o options) (*bench, error) {
	t0 := time.Now()
	fx, err := buildFixture(o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	return &bench{o: o, fx: fx, fixtureS: time.Since(t0).Seconds(), refs: map[string]refTable{}}, nil
}

// refsFor fills the reference table of wl's device on first use. It is
// the checker's cost, not the system's, and is kept out of setup_s.
func (b *bench) refsFor(wl *workload) refTable {
	dev := wl.device
	if dev.Name == "" {
		dev = edge.GPU() // what serve.Config's zero Device means
	}
	if _, ok := b.refs[dev.Name]; !ok {
		b.refs[dev.Name] = b.fx.references(dev)
	}
	return b.refs[dev.Name]
}

// bringUp prepares wl and records what that cost and sent.
func (b *bench) bringUp(wl *workload, res *wlResult, tr *tracer) (*env, error) {
	refs := b.refsFor(wl)
	t0 := time.Now()
	e, enrol, err := newEnv(wl, b.fx, refs, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	res.setupS = append(res.setupS, b.fixtureS+time.Since(t0).Seconds())
	res.note("prep", enrol)
	return e, nil
}

// warmUp runs e's traffic untimed. It is a function of its own so that
// the samples it collects are gone when it returns, before any heap reading.
func (b *bench) warmUp(e *env, res *wlResult) {
	warm := e.run(b.o.warm).merged()
	res.note("warmup", &warm)
}

// round is one round of one workload: a fresh server, a warm-up, one
// measured slice of length d. In the last round the live heap is read at
// the end of the slice, with the sessions still open and the benchmark's
// own window samples reduced and dropped first, so that the reading holds
// the servers' memory and the fixture, not a sample per window served.
func (b *bench) round(wl *workload, res *wlResult, tr *tracer, d time.Duration, last bool) error {
	e, err := b.bringUp(wl, res, tr)
	if err != nil {
		return err
	}
	defer e.close()
	b.warmUp(e, res)
	s := newSlice(e.run(d))
	res.note("measure", &s.all)
	res.slices = append(res.slices, s)
	if last {
		res.reduce()
		res.liveHeapMB = liveHeapMB()
	}
	// The protocol wants every end-to-end metric from every workload, so a
	// workload whose traffic has no lifecycle gets sessions_per_s and
	// personalize_p50_ms from lifecycles driven on its own server after the
	// slice, and the lifecycle workload gets its window numbers from a
	// stream of windows there, where they disturb nothing the workload
	// declares. Each round starts where the one before it stopped, so that
	// the rounds together cover the held-out users.
	if b.o.workload != "" && b.o.trace == 0 {
		n := runtime.NumCPU()
		p, err := e.other(otherPhase, n, len(res.other)*2*n)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		other := newSlice(p)
		res.note("other", &other.all)
		res.other = append(res.other, other)
	}
	return nil
}

// fullRun runs the workloads o selects: o.rounds rounds with tracing off,
// round-robin so that drift of the machine hits every workload alike,
// then — unless o asks for the end-to-end metrics only — a traced pass
// and the layer ladder.
func fullRun(o options, w io.Writer) (*report, error) {
	fmt.Fprintln(w, "# clear-bench", stamp(o))
	wls := workloads(runtime.NumCPU())
	if o.workload != "" {
		var one []workload
		for _, wl := range wls {
			if wl.name == o.workload {
				one = append(one, wl)
			}
		}
		if len(one) == 0 {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		wls = one
	}
	results := make([]*wlResult, len(wls))
	for i := range wls {
		results[i] = &wlResult{wl: &wls[i]}
	}

	// Every round builds the fixture afresh, so setup_s is the median over
	// whole set-ups: the first build in a process runs on a cold heap and
	// takes up to twice as long as the ones after it.
	var b *bench
	for round := 0; round < o.rounds; round++ {
		var err error
		if b, err = newBench(o); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# round %d fixture %.3fs (generate %.3fs, extract %.3fs, train %.3fs)\n",
			round+1, b.fixtureS, b.fx.generate.Seconds(), b.fx.extract.Seconds(), b.fx.train.Seconds())
		for i := range wls {
			wl, res := &wls[i], results[i]
			if err := b.round(wl, res, nil, o.sliceFor(wl, o.slice), round == o.rounds-1); err != nil {
				return nil, err
			}
			s := res.slices[len(res.slices)-1]
			fmt.Fprintf(w, "# round %d %-20s %8.1f windows/s %7.3f sessions/s\n", round+1, wl.name, s.windowsPerS(), s.sessionsPerS)
		}
	}

	rep := &report{workloads: wls, e2e: map[string][]metric{}, layers: map[string][]metric{}, tallies: map[string][]tally{}}
	for _, res := range results {
		rep.e2e[res.wl.name] = res.endToEnd()
		rep.layers[res.wl.name] = res.counters()
		rep.tallies[res.wl.name] = res.tallies
	}
	if o.workload == "" || o.trace == 1 {
		if err := b.layers(rep, results); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# spans written to %s\n", o.traceOut)
	}
	rep.print(w)
	return rep, nil
}

// layers adds the per-layer numbers that need runs of their own: every
// workload again, shorter, with the spans and decorators on, then the
// ladder.
func (b *bench) layers(rep *report, results []*wlResult) error {
	var traces []namedSpans
	for _, res := range results {
		wl := res.wl
		untraced, _ := find(rep.e2e[wl.name], "windows_per_s")
		ms, spans, err := b.tracedPass(wl, b.o.sliceFor(wl, b.o.traced), untraced.Value)
		if err != nil {
			return err
		}
		rep.layers[wl.name] = append(rep.layers[wl.name], ms...)
		traces = append(traces, namedSpans{wl.name, spans})
	}
	if err := writeTraces(b.o.traceOut, traces); err != nil {
		return err
	}
	// Without monitor_solo in the run the ladder's own solo rung stands in
	// for its window_p50_us.
	solo, _ := find(rep.e2e["monitor_solo"], "window_p50_us")
	ladder, err := runLadder(b.fx, runtime.NumCPU(), b.o.quick, solo.Value)
	if err != nil {
		return err
	}
	rep.ladder = ladder
	return nil
}

// tracedPass replays wl with tracing on and returns the store and HTTP
// layer metrics plus what tracing cost against the untraced rate.
func (b *bench) tracedPass(wl *workload, d time.Duration, untracedWPS float64) ([]metric, []span, error) {
	tr := newTracer()
	res := &wlResult{wl: wl}
	if err := b.round(wl, res, tr, d, false); err != nil {
		return nil, nil, err
	}
	if sent, failed := res.attempted(); failed > 0 {
		return nil, nil, fmt.Errorf("%s: traced pass: %d of %d operations failed: %s", wl.name, failed, sent, firstError(res.tallies))
	}
	s := res.slices[0]
	spans := tr.snapshot()
	ms := traceMetrics(spans, s.all.windows, time.Duration(s.wall*float64(time.Second)))
	ms = append(ms, metric{Name: "trace.overhead_share", Unit: "ratio", Value: 1 - ratio(s.windowsPerS(), untracedWPS)})
	return ms, spans, nil
}

func firstError(ts []tally) string {
	for _, t := range ts {
		if t.firstErr != "" {
			return t.phase + ": " + t.firstErr
		}
	}
	return ""
}

type namedSpans struct {
	workload string
	spans    []span
}

func writeTraces(path string, traces []namedSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, t := range traces {
		if err := writeSpans(f, t.workload, t.spans); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}

// declared keeps the end-to-end metrics wl declares.
func declared(wl *workload, ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		if wl.declares(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintln(w, "\n## end-to-end (tracing off)")
	for i := range rep.workloads {
		wl := &rep.workloads[i]
		printMetrics(w, wl.name, declared(wl, rep.e2e[wl.name]))
	}
	fmt.Fprintln(w, "\n## operations sent / failed, by phase")
	for _, wl := range rep.workloads {
		for _, t := range rep.tallies[wl.name] {
			fmt.Fprintf(w, "%-20s %-9s sent=%d succeeded=%d failed=%d %s\n", wl.name, t.phase, t.sent, t.sent-t.failed, t.failed, t.firstErr)
		}
	}
	if rep.ladder == nil {
		return
	}
	fmt.Fprintln(w, "\n## per-layer: counters from the untraced slices, then the traced pass")
	for _, wl := range rep.workloads {
		printMetrics(w, wl.name, rep.layers[wl.name])
	}
	fmt.Fprintln(w, "\n## per-layer: ladder (single goroutine, median of batches)")
	printMetrics(w, "-", rep.ladder)
}

// verdict is the correctness gate of a run: no operation may fail or fail
// its output check, every lifecycle must end personalised, and the gateway
// must really have forwarded the share of windows its layout implies.
func (rep *report) verdict() error {
	var bad []string
	for _, wl := range rep.workloads {
		if m, _ := find(rep.e2e[wl.name], "failed_share"); m.Value != 0 {
			bad = append(bad, fmt.Sprintf("%s: failed_share %g: %s", wl.name, m.Value, firstError(rep.tallies[wl.name])))
		}
		if m, _ := find(rep.layers[wl.name], "serve.personalized_share"); wl.kind == kindColdstart && m.Value != 1 {
			bad = append(bad, fmt.Sprintf("%s: serve.personalized_share %g, want 1", wl.name, m.Value))
		}
		if m, _ := find(rep.layers[wl.name], "serve.forwarded_share"); wl.kind == kindGateway && math.Abs(m.Value-0.5) > 0.05 {
			bad = append(bad, fmt.Sprintf("%s: serve.forwarded_share %g, want 0.5 ± 0.05", wl.name, m.Value))
		}
	}
	if len(bad) > 0 {
		return errors.New("output check failed:\n  " + strings.Join(bad, "\n  "))
	}
	return nil
}

// aaRun runs the full set o.aa times and holds each later run against the
// first: same code, so every end-to-end metric a workload declares must
// agree within its own bound, or the benchmark cannot resolve a regression
// of that size.
func aaRun(o options, w io.Writer) error {
	var reps []*report
	for i := 0; i < o.aa; i++ {
		fmt.Fprintf(w, "\n# ===== A/A run %d of %d =====\n", i+1, o.aa)
		rep, err := fullRun(o, w)
		if err != nil {
			return err
		}
		if err := rep.verdict(); err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	outside := 0
	for i := 1; i < len(reps); i++ {
		fmt.Fprintf(w, "\n## A/A: run %d against run 1\n", i+1)
		for wi := range reps[0].workloads {
			wl := &reps[0].workloads[wi]
			for _, spec := range endToEnd {
				if !wl.declares(spec.name) {
					continue
				}
				a, _ := find(reps[0].e2e[wl.name], spec.name)
				b, _ := find(reps[i].e2e[wl.name], spec.name)
				diff := math.Abs(b.Value - a.Value)
				if !spec.absolute {
					diff = ratio(diff, a.Value)
				}
				mark := "ok"
				if diff > spec.bound {
					mark = "OUTSIDE"
					outside++
				}
				fmt.Fprintf(w, "%-20s %-20s %12.6g -> %12.6g  diff %.4f  bound %.3f  %s\n",
					wl.name, spec.name, a.Value, b.Value, diff, spec.bound, mark)
			}
			// Counts should repeat far tighter than times do.
			for _, name := range []string{"serve.allocs_per_window", "tensor.macs_per_window"} {
				a, _ := find(reps[0].layers[wl.name], name)
				b, _ := find(reps[i].layers[wl.name], name)
				fmt.Fprintf(w, "%-20s %-30s %12.6g -> %12.6g  diff %.4f  (count, informational)\n",
					wl.name, name, a.Value, b.Value, ratio(math.Abs(b.Value-a.Value), a.Value))
			}
		}
	}
	if outside > 0 {
		return fmt.Errorf("A/A: %d end-to-end metric(s) outside their bound", outside)
	}
	return nil
}

// protocolRun is the single-workload protocol: the run fullRun makes of one
// workload, and as the last line of standard output one JSON object with
// every end-to-end metric (-trace 0) or every per-layer metric (-trace 1).
// failed_share travels as the attempted and failed counts.
func protocolRun(o options, w io.Writer) error {
	rep, err := fullRun(o, w)
	if err != nil {
		return err
	}
	var ms []metric
	if o.trace == 0 {
		for _, m := range rep.e2e[o.workload] {
			if m.Name != "failed_share" {
				ms = append(ms, m)
			}
		}
	} else {
		ms = append(rep.layers[o.workload], rep.ladder...)
	}
	verdict := rep.verdict()
	if verdict != nil {
		fmt.Fprintln(w, "#", verdict)
	}
	sent, failed := 0, 0
	for _, t := range rep.tallies[o.workload] {
		sent += t.sent
		failed += t.failed
	}
	js, err := resultLine(ms, sent, failed, verdict == nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", js)
	return nil
}

// resultLine is the one JSON object a single-workload run ends with.
// correct says that no operation failed (the output check included) and
// the run's verdict is clean.
func resultLine(ms []metric, sent, failed int, correct bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: sent, Failed: failed, Metrics: map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(line)
}
