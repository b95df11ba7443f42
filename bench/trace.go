package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// The benchmark's own tracing. The program under test is observed only
// from outside: spans are opened here, around calls into public API, and
// by two decorators (a timing store.Store and HTTP middleware) that sit
// on public interfaces. Spans inside the program are a later change.
//
// A nil *tracer and the zero spanRef are valid and record nothing, so the
// untraced end-to-end slices run the same code with tracing off.

// span is one timed interval. Spans of one operation share Trace; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // on op spans: window, create, labels, close
	Start  int64  `json:"start_ns"`       // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"` // payload size on store spans
	Dedup  bool   `json:"dedup,omitempty"` // on store.put_blob: the blob already existed, nothing was written
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	epoch  time.Time
	traces atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef addresses an open span; the zero value is a no-op.
type spanRef struct {
	t     *tracer
	trace uint64
	id    uint64
}

func (t *tracer) start(trace, parent uint64, name, kind string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Kind: kind, Start: now})
	t.mu.Unlock()
	return spanRef{t: t, trace: trace, id: id}
}

// op opens the root span of one benchmark operation under a fresh trace.
func (t *tracer) op(kind string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.start(t.traces.Add(1), 0, "op", kind)
}

func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return spanRef{}
	}
	return r.t.start(r.trace, r.id, name, "")
}

func (r spanRef) end() { r.endStore(0, false) }

// endStore closes a store span that carried n bytes; dedup marks a blob
// put that found its content already stored.
func (r spanRef) endStore(n int, dedup bool) {
	if r.t == nil {
		return
	}
	now := int64(time.Since(r.t.epoch))
	r.t.mu.Lock()
	s := &r.t.spans[r.id-1]
	s.End, s.Bytes, s.Dedup = now, n, dedup
	r.t.mu.Unlock()
}

// snapshot returns the spans recorded so far that have ended.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

type spanKey struct{}

// withSpan makes r the parent of spans the decorators open under ctx.
func withSpan(ctx context.Context, r spanRef) context.Context {
	if r.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// spanHeader carries "<trace>-<span>" from the load generator to the
// replica middleware. The router clones request headers onto a forwarded
// hop, so replica A rewriting it to its own span makes B's span a child
// of A's.
const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.trace, 10) + "-" + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(v string) (trace, id uint64, ok bool) {
	a, b, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return trace, id, err1 == nil && err2 == nil
}

// middleware times everything a replica does for one request, from the
// first byte its handler sees to the last byte it writes.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, _ := parseSpanHeader(r.Header.Get(spanHeader))
		sp := t.start(trace, parent, name, "")
		r.Header.Set(spanHeader, sp.header())
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		sp.end()
	})
}

// timingStore times every store operation the server issues and records
// how many bytes each write carried. It changes nothing else: results and
// errors pass through untouched.
type timingStore struct {
	store.Store
	tr *tracer
}

func (s *timingStore) span(ctx context.Context, name string) spanRef {
	p := spanFrom(ctx)
	return s.tr.start(p.trace, p.id, name, "")
}

func (s *timingStore) PutSession(ctx context.Context, id string, data []byte) error {
	sp := s.span(ctx, "store.put_session")
	err := s.Store.PutSession(ctx, id, data)
	sp.endStore(len(data), false)
	return err
}

func (s *timingStore) PutSessionFenced(ctx context.Context, id string, f store.Fence, data []byte) error {
	sp := s.span(ctx, "store.put_session")
	err := s.Store.PutSessionFenced(ctx, id, f, data)
	sp.endStore(len(data), false)
	return err
}

func (s *timingStore) GetSession(ctx context.Context, id string) ([]byte, error) {
	sp := s.span(ctx, "store.get_session")
	data, err := s.Store.GetSession(ctx, id)
	sp.end()
	return data, err
}

func (s *timingStore) DeleteSession(ctx context.Context, id string) error {
	sp := s.span(ctx, "store.delete_session")
	err := s.Store.DeleteSession(ctx, id)
	sp.end()
	return err
}

func (s *timingStore) PutBlob(ctx context.Context, data []byte) (store.Digest, bool, error) {
	sp := s.span(ctx, "store.put_blob")
	d, created, err := s.Store.PutBlob(ctx, data)
	sp.endStore(len(data), err == nil && !created)
	return d, created, err
}

func (s *timingStore) GetBlob(ctx context.Context, d store.Digest) ([]byte, error) {
	sp := s.span(ctx, "store.get_blob")
	data, err := s.Store.GetBlob(ctx, d)
	sp.end()
	return data, err
}

func (s *timingStore) PutCheckpoint(ctx context.Context, ck store.Checkpoint) error {
	sp := s.span(ctx, "store.put_checkpoint")
	err := s.Store.PutCheckpoint(ctx, ck)
	sp.end()
	return err
}

func (s *timingStore) DeleteCheckpoint(ctx context.Context, key string) error {
	sp := s.span(ctx, "store.delete_checkpoint")
	err := s.Store.DeleteCheckpoint(ctx, key)
	sp.end()
	return err
}

func (s *timingStore) Lock(ctx context.Context, key, owner string, ttl time.Duration) (store.Lease, error) {
	sp := s.span(ctx, "store.lock")
	l, err := s.Store.Lock(ctx, key, owner, ttl)
	sp.end()
	return l, err
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes one JSON object per line, each span tagged with the
// workload it was recorded under.
func writeSpans(w io.Writer, workload string, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// p50 of an int64 sample, converted by div (1e3 for ns→µs, 1e6 for ns→ms).
func p50Of(vs []int64, div float64) (float64, int) {
	fs := make([]float64, len(vs))
	for i, v := range vs {
		fs[i] = float64(v) / div
	}
	sort.Float64s(fs)
	v, _ := percentile(fs, 0.50)
	return v, len(fs)
}

// traceMetrics turns the traced pass of one workload into the per-layer
// store and HTTP numbers. windows and wall describe the traced slice the
// spans were recorded in.
func traceMetrics(spans []span, windows int, wall time.Duration) []metric {
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	hasKid := map[uint64]bool{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "handler.") {
			hasKid[s.Parent] = true
		}
	}
	// windowOp reports whether s descends from a window operation.
	windowOp := func(s span) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name == "op" && s.Kind == "window"
	}

	var putUS, putKB, blobNS, lockNS, handlerA, clientOver, hop, encode, check []int64
	var puts, blobPuts, blobWrites int
	var bytesWritten, busy int64
	for _, s := range spans {
		switch {
		case s.Name == "store.put_session":
			putUS = append(putUS, s.dur())
			putKB = append(putKB, int64(s.Bytes))
			puts++
			bytesWritten += int64(s.Bytes)
		case s.Name == "store.put_blob":
			blobNS = append(blobNS, s.dur())
			blobPuts++
			if !s.Dedup {
				blobWrites++
				bytesWritten += int64(s.Bytes)
			}
		case s.Name == "store.lock":
			lockNS = append(lockNS, s.dur())
		case s.Name == "handler.A" && windowOp(s):
			handlerA = append(handlerA, s.dur())
			if hasKid[s.ID] { // forwarded: A's self time is the hop
				hop = append(hop, self[s.ID])
			}
		case s.Name == "call" && windowOp(s) && hasKid[s.ID]:
			clientOver = append(clientOver, self[s.ID])
		case s.Name == "encode" && windowOp(s):
			encode = append(encode, s.dur())
		case s.Name == "check" && windowOp(s):
			check = append(check, s.dur())
		}
		if strings.HasPrefix(s.Name, "store.") {
			busy += s.dur()
		}
	}

	var out []metric
	add := func(name, unit string, vs []int64, div float64) {
		v, n := p50Of(vs, div)
		out = append(out, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	add("store.put_session_p50_us", "us", putUS, 1e3)
	add("store.put_session_kb_p50", "KB", putKB, 1024)
	out = append(out,
		metric{Name: "store.puts_per_window", Unit: "puts/window", Value: ratio(float64(puts), float64(windows))},
		metric{Name: "store.bytes_written_per_window", Unit: "bytes/window", Value: ratio(float64(bytesWritten), float64(windows))},
		metric{Name: "store.busy_share", Unit: "ratio", Value: ratio(float64(busy), float64(wall))},
	)
	add("store.put_blob_p50_ms", "ms", blobNS, 1e6)
	add("store.lock_p50_us", "us", lockNS, 1e3)
	// Blob puts per blob physically written. Store.Stats() cannot say: a
	// slice ends with every scripted session closed and its manifest gone.
	out = append(out, metric{Name: "store.blob_dedup_ratio", Unit: "ratio", Value: ratio(float64(blobPuts), float64(blobWrites)), N: blobPuts})
	add("serve.http_handler_p50_us", "us", handlerA, 1e3)
	add("serve.http_client_overhead_p50_us", "us", clientOver, 1e3)
	add("serve.forward_hop_p50_us", "us", hop, 1e3)
	add("bench.encode_p50_us", "us", encode, 1e3)
	add("bench.check_p50_us", "us", check, 1e3)
	return out
}
