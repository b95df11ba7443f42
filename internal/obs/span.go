package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one timed region of a trace. Spans nest: a span started while
// another is open becomes its child, so a request (or a batch run on the
// background trace) produces a trace tree that Render collapses into an
// indented per-stage timing summary. All methods are nil-safe, so call
// sites can hold the result of StartSpanCtx without checking for a
// missing trace.
type Span struct {
	name     string
	id       SpanID
	start    time.Time
	dur      time.Duration
	ended    bool
	err      error
	attrs    map[string]string
	parent   *Span
	children []*Span
	t        *Trace
}

// SetAttr records a key/value attribute on the span (e.g. the peer and
// ring epoch of a cross-node hop). Attributes ride the span into
// SpanSnap.Attrs, so a federated trace shows which replica each hop
// targeted. Nil-safe, like every Span method.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End closes the span, recording its wall-clock duration. Ending a span
// whose children are still open closes them too (their durations are
// capped at the parent's end), so a forgotten End deep in a helper cannot
// corrupt the tree. End is idempotent.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	now := time.Now()
	// If s is on the open chain, implicitly end every open descendant and
	// pop the cursor to s's parent.
	for c := s.t.cur; c != nil && c != s.t.root; c = c.parent {
		if c != s {
			continue
		}
		for d := s.t.cur; d != s; d = d.parent {
			if !d.ended {
				d.dur = now.Sub(d.start)
				d.ended = true
			}
		}
		s.t.cur = s.parent
		break
	}
	s.dur = now.Sub(s.start)
	s.ended = true
}

// Fail records err on the span, marks the owning trace as errored (so the
// trace store's tail sampling keeps it), and ends the span. A nil err just
// ends the span.
func (s *Span) Fail(err error) {
	if s == nil || s.t == nil {
		return
	}
	if err != nil {
		s.t.mu.Lock()
		s.err = err
		s.t.err = true
		s.t.mu.Unlock()
	}
	s.End()
}

// elapsed returns the span's duration, using the current time for spans
// still open (so Render mid-run shows live figures).
func (s *Span) elapsed(now time.Time) time.Duration {
	if s.ended {
		return s.dur
	}
	return now.Sub(s.start)
}

// spanGroup is a set of same-named siblings collapsed into one rendered
// line (e.g. kmeans.restart[8]).
type spanGroup struct {
	name  string
	spans []*Span
}

// groupByName collapses spans by name, preserving first-appearance order.
func groupByName(spans []*Span) []spanGroup {
	var out []spanGroup
	idx := map[string]int{}
	for _, s := range spans {
		if i, ok := idx[s.name]; ok {
			out[i].spans = append(out[i].spans, s)
			continue
		}
		idx[s.name] = len(out)
		out = append(out, spanGroup{name: s.name, spans: []*Span{s}})
	}
	return out
}

func renderGroups(b *strings.Builder, groups []spanGroup, depth int, now time.Time) {
	for _, g := range groups {
		var total time.Duration
		running := false
		failed := false
		var kids []*Span
		for _, s := range g.spans {
			total += s.elapsed(now)
			running = running || !s.ended
			failed = failed || s.err != nil
			kids = append(kids, s.children...)
		}
		label := g.name
		if n := len(g.spans); n > 1 {
			label = fmt.Sprintf("%s[%d]", g.name, n)
		}
		line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), label)
		b.WriteString(fmt.Sprintf("%-44s %10s", line, fmtDur(total)))
		if n := len(g.spans); n > 1 {
			b.WriteString(fmt.Sprintf("  (avg %s)", fmtDur(total/time.Duration(n))))
		}
		if running {
			b.WriteString("  (running)")
		}
		if failed {
			b.WriteString("  (error)")
		}
		b.WriteString("\n")
		renderGroups(b, groupByName(kids), depth+1, now)
	}
}

// fmtDur rounds a duration to a scale-appropriate precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
