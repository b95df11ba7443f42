package serve

// Per-session flight recorder: a fixed-size ring of lifecycle events that
// answers "what happened to this session?" without log archaeology. Every
// consequential transition — cluster assignment, fine-tune attempts and
// their breaker verdicts, sanitisation hits, drift verdicts,
// re-assignments, snapshot restores — appends one event. The ring is
// exposed in the session status JSON, persisted in crash-safe snapshots,
// and re-emitted through the structured log on restore, so a post-mortem
// after a crash or a disputed re-assignment reads as a single ordered
// timeline correlated with request traces by short trace id.
//
// The recorder has its own mutex (never held while taking Session.mu or
// any other lock) so it is safe to append from paths that hold the
// session lock and from server-side workers that do not.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Flight-event kinds. Kept as plain strings in JSON for grep-ability.
const (
	evCreated       = "created"
	evRestored      = "restored"
	evAssigned      = "assigned"
	evImputed       = "window_imputed"
	evRejected      = "window_rejected"
	evFTQueued      = "finetune_queued"
	evFTAttempt     = "finetune_attempt"
	evFTOK          = "finetune_ok"
	evFTFailed      = "finetune_failed"
	evFTSuppressed  = "finetune_suppressed"
	evBreaker       = "breaker"
	evDriftVerdict  = "drift_verdict"
	evDriftSuppress = "drift_suppressed"
	evDriftCleared  = "drift_cleared"
	evReassigned    = "reassigned"
	evOverride      = "assignment_override"
	evClosed        = "closed"
	// Write-behind durability events: a failed write-through, the session
	// entering the replay queue, and the replay landing it durably again.
	evPersistFail     = "persist_failed"
	evPersistQueued   = "persist_queued"
	evPersistReplayed = "persist_replayed"
	// Live-topology events: a persist rejected by the store's epoch/seq
	// fence (this replica's copy is stale), and a session re-hydrated from
	// the store on (re)gaining ownership — the stale-copy fix: the owner
	// discards any in-memory copy and serves from durable state.
	evPersistFenced = "persist_fenced"
	evRehydrated    = "rehydrated"
)

// FlightEvent is one recorded lifecycle transition.
type FlightEvent struct {
	// Seq increases monotonically per session, surviving ring wrap and
	// snapshot restore, so gaps reveal evicted history.
	Seq int64 `json:"seq"`
	// TMS is the wall-clock time in Unix milliseconds.
	TMS int64 `json:"t_ms"`
	// Kind is one of the ev* constants above.
	Kind string `json:"kind"`
	// Detail is a short human-readable summary (key=value pairs).
	Detail string `json:"detail,omitempty"`
	// Trace is the short (64-bit) id of the request or job trace that
	// caused the event, when one was in flight.
	Trace string `json:"trace,omitempty"`
}

// flightRecorder is the bounded ring. Zero value is unusable; use
// newFlightRecorder.
type flightRecorder struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int   // ring write position
	n    int   // events currently held (≤ len(buf))
	seq  int64 // last sequence number handed out
}

// flightEvents sizes each session's ring.
const flightEvents = 64

func newFlightRecorder() *flightRecorder {
	return &flightRecorder{buf: make([]FlightEvent, flightEvents)}
}

// add appends one event and returns it (for logging by the caller).
func (f *flightRecorder) add(kind, detail, trace string) FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	ev := FlightEvent{
		Seq:    f.seq,
		TMS:    time.Now().UnixMilli(),
		Kind:   kind,
		Detail: detail,
		Trace:  trace,
	}
	f.buf[f.next] = ev
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
	return ev
}

// events returns the held events oldest-first.
func (f *flightRecorder) events() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}

// seed reloads persisted events (oldest-first) into an empty recorder,
// continuing the sequence numbering where the snapshot left off. Used on
// snapshot restore so a session's timeline spans process restarts.
func (f *flightRecorder) seed(evs []FlightEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(evs) > len(f.buf) {
		evs = evs[len(evs)-len(f.buf):]
	}
	f.next, f.n = 0, 0
	for _, ev := range evs {
		f.buf[f.next] = ev
		f.next = (f.next + 1) % len(f.buf)
		f.n++
		if ev.Seq > f.seq {
			f.seq = ev.Seq
		}
	}
	f.next %= len(f.buf)
}

// record appends a lifecycle event to the session's flight ring and
// mirrors it to the structured log, correlated with the request trace in
// ctx (if any). Rare, consequential transitions log at Info; high-volume
// ones at Debug. Safe to call with or without s.mu held.
func (s *Session) record(ctx context.Context, kind, format string, args ...any) {
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	tid := ""
	if t := obs.TraceOf(ctx); t != nil {
		tid = t.ID().Short()
	}
	ev := s.flight.add(kind, detail, tid)
	lg := obs.Log(ctx)
	switch kind {
	case evAssigned, evReassigned, evOverride, evBreaker,
		evFTFailed, evRestored, evRejected, evRehydrated, evPersistFenced:
		lg.Info("session "+kind, "session", s.id, "seq", ev.Seq, "detail", detail)
	default:
		lg.Debug("session "+kind, "session", s.id, "seq", ev.Seq, "detail", detail)
	}
}
