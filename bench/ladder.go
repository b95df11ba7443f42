package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

// The layer ladder times each layer alone, from the kernel up to one
// window through a whole server: single goroutine, fixed iteration
// counts, one held-out map and its cluster baseline. Each rung is the
// median of several batches, with allocations and bytes per operation
// beside the time. It exists so that the per-layer numbers can be added
// up and set against the end-to-end one.

// firstErr keeps the first error a rung's closure hits; rungs run to
// completion and the ladder fails once, at the end.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) note(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

type rungResult struct {
	ns     float64 // per operation
	allocs float64
	bytes  float64
}

// rung runs f iters times per batch and returns the median batch. f runs
// once untimed first, so lazily built state is not charged to the rung.
func rung(batches, iters int, f func()) rungResult {
	f()
	var ns, allocs, bs []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(iters)
		ns = append(ns, float64(el.Nanoseconds())/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		bs = append(bs, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	return rungResult{ns: median(ns), allocs: median(allocs), bytes: median(bs)}
}

func (r rungResult) metric(name, unit string, div float64) metric {
	return metric{Name: name, Unit: unit, Value: r.ns / div,
		Note: fmt.Sprintf("%.0f allocs/op, %.0f B/op", r.allocs, r.bytes)}
}

// runLadder returns the ladder's metrics. soloP50US is window_p50_us of
// monitor_solo when this process measured it; when it is 0 the ladder's
// own solo rung stands in, which measures the same operation the same
// way on a shorter sample.
func runLadder(fx *fixture, nproc int, quick bool, soloP50US float64) ([]metric, error) {
	batches, div := 5, 1
	if quick {
		batches, div = 2, 20
	}
	it := func(n int) int { return max(1, n/div) }
	ctx := context.Background()
	pipe := fx.pipe
	raw := fx.held[0].Maps[0].Map
	x := pipe.Apply(raw)
	k := pipe.AssignMaps([]*tensor.Tensor{raw}, 0.1).Cluster
	fp := edge.Deploy(pipe.Models[k], edge.GPU()).Model
	q8 := edge.Deploy(pipe.Models[k], edge.CoralTPU()).Model
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = x
	}
	var out []metric
	add := func(ms ...metric) { out = append(out, ms...) }
	var errs firstErr

	// Kernel.
	a, b := tensor.New(64, 64), tensor.New(64, 64)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float64(i%13)*0.1, float64(i%7)*0.2
	}
	add(rung(batches, it(200), func() { a.MatMul(b) }).metric("tensor.matmul_64_us", "us", 1e3))

	// Model forward, fp32 and int8, one window and a batch of 16. Today
	// ProbabilitiesBatch is a per-sample loop, so b16 per window ≈ b1; the
	// pair exists so that a real minibatch kernel shows.
	f1 := rung(batches, it(100), func() { fp.ProbabilitiesBatch(xs[:1]) })
	f16 := rung(batches, it(10), func() { fp.ProbabilitiesBatch(xs) })
	add(f1.metric("nn.forward_b1_us", "us", 1e3),
		f16.metric("nn.forward_b16_us_per_window", "us", 16e3),
		metric{Name: "nn.forward_allocs_per_window", Unit: "allocs/window", Value: f1.allocs},
		metric{Name: "nn.forward_bytes_per_window", Unit: "bytes/window", Value: f1.bytes})
	q1 := rung(batches, it(100), func() { q8.ProbabilitiesBatch(xs[:1]) })
	q16 := rung(batches, it(10), func() { q8.ProbabilitiesBatch(xs) })
	add(q1.metric("quant.forward_int8_b1_us", "us", 1e3),
		q16.metric("quant.forward_int8_b16_us_per_window", "us", 16e3),
		metric{Name: "quant.forward_int8_allocs_per_window", Unit: "allocs/window", Value: q1.allocs},
		rung(batches, it(20), func() { edge.Deploy(pipe.Models[k], edge.CoralTPU()) }).metric("edge.deploy_ms", "ms", 1e6))

	// The exact fine-tune job a lifecycle queues: 5 labelled maps.
	samples := make([]nn.Sample, labelledMaps)
	for i := range samples {
		lm := fx.held[0].Maps[i]
		samples[i] = nn.Sample{X: pipe.Apply(lm.Map), Y: int(lm.Label)}
	}
	ft := rung(batches, 1, func() {
		_, err := pipe.FineTune(k, samples)
		errs.note(err)
	})
	add(ft.metric("core.finetune_ms", "ms", 1e6),
		metric{Name: "core.finetune_kallocs", Unit: "kallocs", Value: ft.allocs / 1000})

	// The per-window work PushWindowCtx does around the executor.
	apply := rung(batches, it(500), func() { pipe.Apply(raw) })
	summ := rung(batches, it(500), func() { features.Summary([]*tensor.Tensor{raw}) })
	summary := features.Summary([]*tensor.Tensor{raw})
	assign := rung(batches, it(500), func() { pipe.AssignFromSummary(summary, 0.1) })
	mon := edge.NewMonitor(edge.Deploy(pipe.Models[k], edge.GPU()), nil, pipe.Cfg.Extractor)
	observe := rung(batches, it(100000), func() { mon.Observe(0.4) })
	add(apply.metric("core.apply_us", "us", 1e3),
		summ.metric("features.summary_us", "us", 1e3),
		assign.metric("core.assign_from_summary_us", "us", 1e3),
		observe.metric("edge.monitor_observe_ns", "ns", 1),
		rung(batches, it(200), func() { pipe.AssignMaps([]*tensor.Tensor{raw}, 0.1) }).metric("core.assign_maps_us", "us", 1e3))

	// A fresh executor with the shipped policy: one submitter waits out
	// the coalescing timer, sixteen fill the batch.
	ex := serve.NewExecutor(16, 2*time.Millisecond, 256, nproc)
	submit := func() {
		_, err := ex.Submit(ctx, fp, x)
		errs.note(err)
	}
	e1 := rung(batches, it(50), submit)
	e16 := rung(batches, it(20), func() {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				submit()
			}()
		}
		wg.Wait()
	})
	ex.Close()
	add(e1.metric("serve.exec_submit_b1_us", "us", 1e3), e16.metric("serve.exec_submit_b16_us", "us", 1e3))

	// Session layer and HTTP handler on a server with no store.
	srv, err := serve.New(pipe, serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer srv.Shutdown()
	note := errs.note
	uid := fx.held[0].ID
	var createNS, closeNS []float64
	n := it(100)
	for bch := 0; bch < batches; bch++ {
		ids := make([]string, n)
		t0 := time.Now()
		for i := range ids {
			s, err := srv.CreateSession(uid, enrolWindows, 0)
			note(err)
			if s != nil {
				ids[i] = s.ID()
			}
		}
		t1 := time.Now()
		for _, id := range ids {
			note(srv.CloseSession(id))
		}
		createNS = append(createNS, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		closeNS = append(closeNS, float64(time.Since(t1).Nanoseconds())/float64(n))
	}
	add(metric{Name: "serve.create_session_us", Unit: "us", Value: median(createNS) / 1e3},
		metric{Name: "serve.close_session_us", Unit: "us", Value: median(closeNS) / 1e3})

	// A session whose budget is never met stays enrolling: sanitise,
	// retain, acknowledge.
	enrolling, err := srv.CreateSession(uid, 4096, 1)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	push := func(s *serve.Session) func() {
		return func() {
			_, err := s.PushWindow(raw)
			note(err)
		}
	}
	add(rung(batches, it(200), push(enrolling)).metric("serve.push_enrolling_us", "us", 1e3))

	assigned := func() (*serve.Session, error) {
		s, err := srv.CreateSession(uid, enrolWindows, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < enrolWindows; i++ {
			if _, err := s.PushWindow(fx.held[0].Maps[i].Map); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	soloSess, err := assigned()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	solo := rung(batches, it(60), push(soloSess))
	add(solo.metric("serve.push_window_solo_us", "us", 1e3))

	httpSess, err := assigned()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	body, err := json.Marshal(serve.WindowPayload{Map: &serve.MapPayload{Rows: raw.Dim(0), Cols: raw.Dim(1), Data: raw.Data}})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	path := "/v1/sessions/" + httpSess.ID() + "/windows"
	inproc := rung(batches, it(60), func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			note(fmt.Errorf("handler answered %d: %s", w.Code, w.Body))
		}
	})
	add(inproc.metric("serve.http_handler_inproc_us", "us", 1e3),
		metric{Name: "serve.http_overhead_us", Unit: "us", Value: (inproc.ns - solo.ns) / 1e3},
		metric{Name: "serve.http_allocs_per_window", Unit: "allocs/window", Value: inproc.allocs})

	// Store backends on a real record and a real checkpoint blob.
	storeMs, err := storeRungs(fx, batches, it, &errs)
	if err != nil {
		return nil, err
	}
	add(storeMs...)

	ring := shard.New([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	reg := obs.NewRegistry()
	cv := reg.CounterVec("bench_hot", []string{"endpoint", "code"})
	hist := reg.Histogram("bench_hist", obs.ExpBuckets(1, 2, 26))
	add(rung(batches, it(100000), func() { ring.Owner("s000123") }).metric("shard.owner_ns", "ns", 1),
		rung(batches, it(200000), func() { cv.With("windows", "200").Inc() }).metric("obs.counter_vec_inc_ns", "ns", 1),
		rung(batches, it(200000), func() { hist.Observe(137) }).metric("obs.histogram_observe_ns", "ns", 1))

	// Where set-up time goes.
	extractOne := rung(batches, it(20), func() {
		_, err := features.ExtractMap(fx.rec, pipe.Cfg.Extractor)
		errs.note(err)
	})
	add(metric{Name: "wemac.generate_s", Unit: "s", Value: fx.generate.Seconds()},
		metric{Name: "features.extract_all_s", Unit: "s", Value: fx.extract.Seconds()},
		extractOne.metric("features.extract_map_ms", "ms", 1e6),
		metric{Name: "core.train_s", Unit: "s", Value: fx.train.Seconds()})

	// Close the books: what the layers under one solo window add up to,
	// and how much of the window they leave unexplained — the session
	// layer's own time (locks, sanitise, flight recorder, metrics, stage
	// timer).
	sumUS := (apply.ns + summ.ns + e1.ns + observe.ns + assign.ns) / 1e3
	if soloP50US == 0 {
		soloP50US = solo.ns / 1e3
	}
	add(metric{Name: "ladder.solo_sum_us", Unit: "us", Value: sumUS},
		metric{Name: "ladder.solo_residual_share", Unit: "ratio", Value: ratio(soloP50US-sumUS, soloP50US)})
	if errs.err != nil {
		return nil, fmt.Errorf("ladder: %w", errs.err)
	}
	return out, nil
}

// storeRungs times the two store backends on a session record a server
// really wrote (read back with GetSession) and on a real nn.Model.Save
// blob. Blobs are content-addressed, so each put gets distinct trailing
// bytes: an identical blob would be deduplicated and never written.
func storeRungs(fx *fixture, batches int, it func(int) int, errs *firstErr) ([]metric, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "clear-bench-ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file, err := store.NewFile(dir)
	if err != nil {
		return nil, err
	}
	defer file.Close()

	srv, err := serve.New(fx.pipe, serve.Config{Store: file})
	if err != nil {
		return nil, err
	}
	sess, err := srv.CreateSession(fx.held[0].ID, enrolWindows, 0)
	if err == nil {
		for i := 0; i < enrolWindows && err == nil; i++ {
			_, err = sess.PushWindow(fx.held[0].Maps[i].Map)
		}
	}
	var rec []byte
	if err == nil {
		rec, err = file.GetSession(ctx, sess.ID())
	}
	srv.Shutdown()
	if err != nil {
		return nil, fmt.Errorf("ladder: session record: %w", err)
	}
	var blob bytes.Buffer
	if err := fx.pipe.Models[0].Save(&blob); err != nil {
		return nil, fmt.Errorf("ladder: checkpoint blob: %w", err)
	}
	data := append(blob.Bytes(), make([]byte, 8)...)
	tail := data[len(data)-8:]

	note := errs.note
	mem := store.NewMem()
	var serial uint64
	out := []metric{
		rung(batches, it(2000), func() { note(mem.PutSession(ctx, "bench", rec)) }).metric("store.mem_put_session_us", "us", 1e3),
		rung(batches, it(20), func() { note(file.PutSession(ctx, "bench", rec)) }).metric("store.file_put_session_us", "us", 1e3),
		rung(batches, it(200), func() { _, err := file.GetSession(ctx, "bench"); note(err) }).metric("store.file_get_session_us", "us", 1e3),
		rung(batches, it(10), func() {
			serial++
			binary.LittleEndian.PutUint64(tail, serial)
			_, _, err := file.PutBlob(ctx, data)
			note(err)
		}).metric("store.file_put_blob_ms", "ms", 1e6),
		{Name: "store.session_record_kb", Unit: "KB", Value: float64(len(rec)) / 1024},
	}
	return out, nil
}
