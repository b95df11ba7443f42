package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace("req")
	h := tr.Traceparent()
	id, sp, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if id != tr.ID() || sp == 0 {
		t.Fatalf("parsed (%v, %v) from %q, want id %v", id, sp, h, tr.ID())
	}
	// A child trace continues the caller's 128-bit id verbatim.
	child := NewTraceFromParent("req", h)
	if child.ID() != tr.ID() {
		t.Fatalf("child id %v, want parent id %v", child.ID(), tr.ID())
	}
	if !strings.Contains(child.Traceparent(), tr.ID().String()) {
		t.Fatalf("child traceparent %q missing parent trace id", child.Traceparent())
	}
}

func TestTraceparentKeepsHighWord(t *testing.T) {
	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := NewTraceFromParent("req", header)
	if got := tr.ID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("ingested id = %s, want the full caller id", got)
	}
	if got := tr.ID().Short(); got != "a3ce929d0e0e4736" {
		t.Fatalf("short id = %s, want low word", got)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-zz",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"00-4bf92f3577b34da6-00f067aa0ba902b7-01",                 // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
	if _, _, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); !ok {
		t.Error("canonical W3C example rejected")
	}
}

func TestTraceContextCarrier(t *testing.T) {
	tr := NewTrace("req")
	ctx := WithTrace(context.Background(), tr)
	if TraceOf(ctx) != tr {
		t.Fatal("TraceOf did not return the carried trace")
	}
	sp := StartSpanCtx(ctx, "stage")
	if sp == nil {
		t.Fatal("StartSpanCtx returned nil with a trace present")
	}
	sp.End()
	// No trace in ctx: nil span, and all methods are no-ops.
	var nilSpan *Span
	if got := StartSpanCtx(context.Background(), "stage"); got != nilSpan {
		t.Fatal("StartSpanCtx without a trace should return nil")
	}
	nilSpan.End()
	nilSpan.Fail(errors.New("x"))
	if !strings.Contains(tr.Render(), "stage") {
		t.Fatal("span missing from render")
	}
}

func TestTraceErrorPropagation(t *testing.T) {
	tr := NewTrace("req")
	sp := tr.Start("infer")
	sp.Fail(errors.New("deadline"))
	if !tr.Errored() {
		t.Fatal("Fail did not mark the trace errored")
	}
	snap := tr.Snapshot()
	if !snap.Error || len(snap.Spans) != 1 || snap.Spans[0].Err != "deadline" {
		t.Fatalf("snapshot did not carry span error: %+v", snap)
	}
	if !strings.Contains(tr.Render(), "(error)") {
		t.Fatal("render missing error marker")
	}
}

func TestTraceSpanCapDrops(t *testing.T) {
	tr := NewTrace("req")
	for i := 0; i < defaultMaxSpans+10; i++ {
		tr.Start("s").End()
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != defaultMaxSpans {
		t.Fatalf("kept %d spans, want cap %d", len(snap.Spans), defaultMaxSpans)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

func TestTraceFinishClosesOpenSpansAndStopsStarts(t *testing.T) {
	tr := NewTrace("req")
	outer := tr.Start("outer")
	tr.Start("inner") // left open
	tr.Finish()
	if !outer.ended {
		t.Fatal("Finish left a span open")
	}
	if tr.Start("late") != nil {
		t.Fatal("Start after Finish should return nil")
	}
	d := tr.Snapshot().DurUS
	time.Sleep(2 * time.Millisecond)
	if tr.Snapshot().DurUS != d {
		t.Fatal("duration not frozen by Finish")
	}
}

func TestTraceSnapshotParentLinks(t *testing.T) {
	tr := NewTrace("req")
	p := tr.Start("parent")
	tr.Start("child").End()
	p.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(snap.Spans))
	}
	if snap.Spans[0].Parent != "" {
		t.Fatalf("top-level span has parent %q", snap.Spans[0].Parent)
	}
	if snap.Spans[1].Parent != snap.Spans[0].ID {
		t.Fatalf("child parent = %q, want %q", snap.Spans[1].Parent, snap.Spans[0].ID)
	}
}

func TestTraceStoreTailSampling(t *testing.T) {
	st := NewTraceStore(1000, 0) // zero OK budget after burst drains
	okKept := 0
	for i := 0; i < 50; i++ {
		tr := NewTrace("ok")
		if st.Add(tr) {
			okKept++
		}
	}
	if okKept != 8 { // burst floor is 8 even with okPerSec=0
		t.Fatalf("kept %d OK traces, want the burst of 8", okKept)
	}
	// Errors always get through, even with the bucket empty.
	for i := 0; i < 20; i++ {
		tr := NewTrace("err")
		tr.MarkError()
		if !st.Add(tr) {
			t.Fatal("error trace was shed")
		}
	}
	if st.Len() != 28 {
		t.Fatalf("held %d traces, want 8 OK + 20 errored", st.Len())
	}
}

func TestTraceStoreGetAndEviction(t *testing.T) {
	st := NewTraceStore(4, 1000)
	var first, last *Trace
	for i := 0; i < 8; i++ {
		tr := NewTrace("req")
		tr.MarkError()
		tr.Start("s").End()
		st.Add(tr)
		if i == 0 {
			first = tr
		}
		last = tr
	}
	if st.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", st.Len())
	}
	if _, ok := st.Get(first.ID().String()); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	// Lookup works with both the 32-hex and 16-hex forms.
	for _, key := range []string{last.ID().String(), last.ID().Short()} {
		snap, ok := st.Get(key)
		if !ok {
			t.Fatalf("Get(%q) missed", key)
		}
		if snap.TraceID != last.ID().String() || len(snap.Spans) != 1 {
			t.Fatalf("bad snapshot for %q: %+v", key, snap)
		}
	}
	if _, ok := st.Get("not-hex"); ok {
		t.Fatal("Get accepted a malformed id")
	}
}

func TestBackgroundTraceUnbounded(t *testing.T) {
	ResetSpans()
	defer ResetSpans()
	for i := 0; i < defaultMaxSpans+50; i++ {
		StartSpan("s").End()
	}
	if BackgroundTrace().Snapshot().Dropped != 0 {
		t.Fatal("background trace dropped spans below its cap")
	}
}
