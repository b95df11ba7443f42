package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRankAndTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		enough bool
	}{
		{n: 20, q: 0.50, want: 10, enough: true},    // 10 samples beyond the median
		{n: 19, q: 0.50, want: 10, enough: false},   // only 9
		{n: 200, q: 0.95, want: 190, enough: true},  // exactly ten beyond
		{n: 199, q: 0.95, want: 190, enough: false}, // rank ⌈189.05⌉ = 190, nine beyond
		{n: 1000, q: 0.99, want: 990, enough: true},
		{n: 1, q: 0.95, want: 1, enough: false},
	} {
		got, enough := percentile(ramp(tc.n), tc.q)
		if got != tc.want || enough != tc.enough {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, enough, tc.want, tc.enough)
		}
	}
	if v, enough := percentile(nil, 0.5); v != 0 || enough {
		t.Errorf("percentile(nil) = %v, %v; want 0, false", v, enough)
	}
}

// ms is n window latencies of v milliseconds, in ns.
func ms(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v * int64(time.Millisecond)
	}
	return out
}

func TestMedianOfRoundsAndPooledPercentiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}

	// Three one-second rounds. The second is an outlier in every rate and in
	// its latencies, so the end-to-end percentiles (median of the rounds)
	// pass it over; the per-layer ones pool its samples with the others.
	round := func(windows int, latMS int64, cpuUS, sessionsPerS float64) *slice {
		return &slice{wall: 1, cpuUS: cpuUS, mallocs: float64(10 * windows), sessionsPerS: sessionsPerS,
			all: recorder{windows: windows, lat: ms(windows, latMS), qwait: ms(windows, 1), personalize: ms(1, 100*latMS)}}
	}
	wl := workloads(2)[0]
	res := &wlResult{wl: &wl, setupS: []float64{1, 5, 2},
		slices: []*slice{round(100, 1, 1000, 2), round(400, 9, 400, 8), round(200, 2, 1000, 3)}}
	res.note("measure", &recorder{sent: 700})
	got := res.endToEnd()
	for name, want := range map[string]float64{
		"setup_s": 2, "windows_per_s": 200, "cpu_us_per_window": 5, "sessions_per_s": 3,
		"window_p50_us":      2000, // of 1000, 9000, 2000
		"window_p95_us":      2000, //
		"personalize_p50_ms": 200,  // of 100, 900, 200
		"failed_share":       0,
	} {
		if m, ok := find(got, name); !ok || math.Abs(m.Value-want) > 1e-9 {
			t.Errorf("%s = %v (found %v), want %v", name, m.Value, ok, want)
		}
	}
	if m, _ := find(got, "window_p50_us"); m.N != 700 || m.Note != "" {
		t.Errorf("window_p50_us over %d samples (%q), want all 700 counted and unflagged", m.N, m.Note)
	}
	if m, _ := find(got, "personalize_p50_ms"); m.Note == "" {
		t.Error("personalize_p50_ms over three samples must be flagged: fewer than ten beyond")
	}
	// Reducing dropped the window samples, so a live-heap reading after it
	// holds none of them; the counters come from the same reduction.
	for i, s := range res.slices {
		if s.all.lat != nil || s.all.qwait != nil {
			t.Errorf("slice %d still holds its window samples after reduce", i)
		}
	}
	layers := res.counters()
	// 400 of the 700 pooled samples are the second round's.
	for _, name := range []string{"serve.window_p50_us", "serve.window_p99_us"} {
		if m, _ := find(layers, name); m.Value != 9000 || m.N != 700 {
			t.Errorf("%s = %v over %d samples; want 9000 over 700 pooled", name, m.Value, m.N)
		}
	}
	if m, _ := find(layers, "serve.allocs_per_window"); m.Value != 10 {
		t.Errorf("serve.allocs_per_window = %v, want 10", m.Value)
	}

	// A single-workload run takes what the workload's own traffic lacks
	// from the phases appended to it: lifecycle numbers on a window workload…
	other := round(50, 4, 100, 1.5)
	other.all.personalize = ms(1, 700)
	res.other = []*slice{other}
	got = res.endToEnd()
	for name, want := range map[string]float64{"sessions_per_s": 1.5, "personalize_p50_ms": 700, "windows_per_s": 200, "window_p50_us": 2000} {
		if m, _ := find(got, name); m.Value != want {
			t.Errorf("window workload with an appended phase: %s = %v, want %v", name, m.Value, want)
		}
	}
	// …and window numbers on the lifecycle workload.
	cold := workloads(2)[4]
	res.wl = &cold
	got = res.endToEnd()
	for name, want := range map[string]float64{"sessions_per_s": 3, "personalize_p50_ms": 200, "windows_per_s": 50, "window_p50_us": 4000, "cpu_us_per_window": 2} {
		if m, _ := find(got, name); m.Value != want {
			t.Errorf("lifecycle workload with an appended phase: %s = %v, want %v", name, m.Value, want)
		}
	}

	// The session rate is callers ÷ the median session, so one lifecycle
	// that ran its fine-tune twice does not move it.
	p := &phase{recs: []*recorder{{sessDur: ms(3, 500)}, {sessDur: append(ms(2, 500), ms(1, 1000)...)}}}
	if s := newSlice(p); s.sessionsPerS != 4 {
		t.Errorf("sessionsPerS = %v, want 2 callers ÷ 0.5 s", s.sessionsPerS)
	}

	if !wl.declares("window_p95_us") || wl.declares("sessions_per_s") || !wl.declares("setup_s") {
		t.Errorf("%s declares %v", wl.name, wl.metrics)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},     // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},    // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "b.1", Start: 25, End: 45},   // grandchild: only b's business
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7}, // parent never recorded
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// failingStore fails every operation the timing wrapper decorates with
// its own distinct error.
type failingStore struct {
	store.Store
	errs map[string]error
}

func (f failingStore) PutSession(context.Context, string, []byte) error { return f.errs["put"] }
func (f failingStore) PutSessionFenced(context.Context, string, store.Fence, []byte) error {
	return f.errs["fenced"]
}
func (f failingStore) GetSession(context.Context, string) ([]byte, error) {
	return []byte("rec"), f.errs["get"]
}
func (f failingStore) DeleteSession(context.Context, string) error { return f.errs["del"] }
func (f failingStore) PutBlob(context.Context, []byte) (store.Digest, bool, error) {
	return "sha256:x", true, f.errs["blob"]
}
func (f failingStore) GetBlob(context.Context, store.Digest) ([]byte, error) {
	return []byte("blob"), f.errs["getblob"]
}
func (f failingStore) PutCheckpoint(context.Context, store.Checkpoint) error { return f.errs["ck"] }
func (f failingStore) DeleteCheckpoint(context.Context, string) error        { return f.errs["delck"] }
func (f failingStore) Lock(context.Context, string, string, time.Duration) (store.Lease, error) {
	return nil, f.errs["lock"]
}

func TestTimingStorePassesResultsAndErrorsThrough(t *testing.T) {
	errs := map[string]error{}
	for _, k := range []string{"put", "fenced", "get", "del", "blob", "getblob", "ck", "delck", "lock"} {
		errs[k] = errors.New(k)
	}
	// store.ErrFenced is one the server branches on with errors.Is.
	errs["fenced"] = store.ErrFenced
	tr := newTracer()
	ts := &timingStore{Store: failingStore{errs: errs}, tr: tr}
	ctx := withSpan(context.Background(), tr.op("window"))

	same := func(op string, got error) {
		t.Helper()
		if got != errs[op] {
			t.Errorf("%s: error %v, want the backend's own %v", op, got, errs[op])
		}
	}
	same("put", ts.PutSession(ctx, "s", []byte("12345")))
	same("fenced", ts.PutSessionFenced(ctx, "s", store.Fence{Epoch: 1, Seq: 2}, []byte("123")))
	data, err := ts.GetSession(ctx, "s")
	same("get", err)
	if string(data) != "rec" {
		t.Errorf("GetSession data %q, want it passed through", data)
	}
	same("del", ts.DeleteSession(ctx, "s"))
	d, created, err := ts.PutBlob(ctx, []byte("1234567"))
	same("blob", err)
	if d != "sha256:x" || !created {
		t.Errorf("PutBlob = %v, %v; want the backend's results", d, created)
	}
	_, err = ts.GetBlob(ctx, d)
	same("getblob", err)
	same("ck", ts.PutCheckpoint(ctx, store.Checkpoint{}))
	same("delck", ts.DeleteCheckpoint(ctx, "s"))
	_, err = ts.Lock(ctx, "k", "me", time.Second)
	same("lock", err)

	// Every call left one ended span under the op, with the bytes it carried.
	bytes := map[string]int{}
	n := 0
	for _, s := range tr.snapshot() {
		if s.Parent == 1 {
			n++
			bytes[s.Name] += s.Bytes
		}
	}
	if n != 9 || bytes["store.put_session"] != 8 || bytes["store.put_blob"] != 7 {
		t.Errorf("recorded %d store spans with bytes %v; want 9, put_session 8, put_blob 7", n, bytes)
	}

	// With tracing off the wrapper is not installed, but a nil tracer must
	// still be harmless.
	off := &timingStore{Store: failingStore{errs: errs}}
	same("put", off.PutSession(context.Background(), "s", nil))
}

func TestResultLineShape(t *testing.T) {
	line, err := resultLine([]metric{{Name: "setup_s", Unit: "s", Value: 0.8127}, {Name: "windows_per_s", Unit: "windows/s", Value: 1500.25}}, 1000, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "true" || string(got["attempted"]) != "1000" || string(got["failed"]) != "0" {
		t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil || ms["setup_s"].Value != 0.8127 || ms["windows_per_s"].Unit != "windows/s" {
		t.Errorf("metrics %s (%v)", got["metrics"], err)
	}
	if line, _ := resultLine(nil, 10, 1, false); !json.Valid(line) || string(line[:17]) != `{"correct":false,` {
		t.Errorf("a failed operation must make the run incorrect: %s", line)
	}
}

// benchmarkJSON is what the root BENCHMARK.json declares.
type benchmarkJSON struct {
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestQuickSmoke runs the whole command the way `go run ./bench -quick`
// does and holds what it emits against BENCHMARK.json: every end-to-end
// metric named there exactly once per workload that declares it, every
// per-layer metric exactly once per workload, with the unit declared there,
// nothing failed, and the correctness verdict clean.
func TestQuickSmoke(t *testing.T) {
	decl := readBenchmarkJSON(t)
	o := options{seed: 17, quick: true, rounds: 1, slice: 300 * time.Millisecond, warm: 50 * time.Millisecond,
		traced: 100 * time.Millisecond, traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
	obs.SetLogWriter(io.Discard)
	rep, err := fullRun(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.verdict(); err != nil {
		t.Error(err)
	}

	if len(decl.Workloads) != len(rep.workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(decl.Workloads), len(rep.workloads))
	}
	count := func(ms []metric, name, unit string) int {
		n := 0
		for _, m := range ms {
			if m.Name == name {
				n++
				if m.Unit != unit {
					t.Errorf("%s: emitted in %q, declared in %q", name, m.Unit, unit)
				}
			}
		}
		return n
	}
	for i, w := range decl.Workloads {
		if i >= len(rep.workloads) || rep.workloads[i].name != w.Name {
			t.Errorf("workload %s of BENCHMARK.json was not run in that place", w.Name)
			continue
		}
		wl := &rep.workloads[i]
		printed := declared(wl, rep.e2e[w.Name])
		for _, m := range decl.EndToEnd {
			// A single-workload run must be able to name every one of them,
			// declared or not.
			if n := count(rep.e2e[w.Name], m.Name, m.Unit); n != 1 {
				t.Errorf("%s: end-to-end metric %s computed %d times", w.Name, m.Name, n)
			}
			if !wl.declares(m.Name) {
				continue
			}
			if n := count(printed, m.Name, m.Unit); n != 1 {
				t.Errorf("%s: end-to-end metric %s emitted %d times", w.Name, m.Name, n)
			}
			if v, _ := find(printed, m.Name); v.Value <= 0 {
				t.Errorf("%s: %s = %v; a declared end-to-end metric is never 0", w.Name, m.Name, v.Value)
			}
		}
		if got, want := len(printed), len(wl.metrics)+3; got != want {
			t.Errorf("%s: %d end-to-end metrics printed, it declares %d", w.Name, got, want)
		}
		for _, m := range decl.PerLayer {
			if n := count(rep.layers[w.Name], m.Name, m.Unit) + count(rep.ladder, m.Name, m.Unit); n != 1 {
				t.Errorf("%s: per-layer metric %s emitted %d times", w.Name, m.Name, n)
			}
		}
		if got, want := len(rep.layers[w.Name])+len(rep.ladder), len(decl.PerLayer); got != want {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json declares %d", w.Name, got, want)
		}
		if m, ok := find(printed, "failed_share"); !ok || m.Value != 0 {
			t.Errorf("%s: failed_share = %v (emitted %v), want 0", w.Name, m.Value, ok)
		}
	}

	// The declared bounds are the ones -aa gates with.
	for _, m := range decl.EndToEnd {
		for _, spec := range endToEnd {
			if spec.name == m.Name && (spec.bound != m.Bound || spec.unit != m.Unit || spec.higher != (m.Better == "higher")) {
				t.Errorf("%s: BENCHMARK.json says %+v, the command gates with %+v", m.Name, m, spec)
			}
		}
	}
	if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
