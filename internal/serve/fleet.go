package serve

// Fleet-wide observability: the federated read side of the cluster.
//
//   - GET /v1/traces/{id} (router mode) federates: the serving node fans
//     out to every ring peer — bounded to one hop by federationHeader,
//     bounded in time by the per-attempt forward deadline — collects each
//     peer's segment of the trace, and stitches them into one span list
//     with every span tagged by its origin replica. A forwarded request
//     therefore resolves as a single tree at ANY replica: the entry
//     node's proxy segment (with its `forward` span carrying peer +
//     epoch) and the owner's handler segment share one 128-bit id.
//   - GET /v1/fleet concurrently scrapes every member's /v1/stats,
//     /v1/slo, and /v1/events, merges the counters and worst-case burn
//     rates, checks ring-wide invariants (epoch agreement, Σ local
//     sessions == Σ owned, replay queues empty), and merges the event
//     journals into one causally-ordered stream. A peer that misses the
//     deadline is reported `unreachable` — the report is partial, never
//     an error: a half-answered fleet view during an incident beats a
//     500.
//
// Both are router-mode routes. A single replica (no router) answers
// /v1/traces/{id} from its own trace store and has no /v1/fleet; its
// /v1/stats, /v1/slo and /v1/events are the per-node pieces the fleet
// report merges.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// FleetTrace is the federated GET /v1/traces/{id} body: every retained
// segment of one trace collected from across the ring, stitched into a
// single span list with each span tagged by the replica that recorded
// it. Field names mirror obs.TraceSnapshot so single-segment consumers
// keep working unchanged.
type FleetTrace struct {
	TraceID string    `json:"trace_id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	Error   bool      `json:"error"`
	// Nodes lists the replicas that contributed a segment (sorted);
	// Unreachable the peers whose fan-out leg failed, so a partial stitch
	// is explicit.
	Nodes       []string       `json:"nodes"`
	Unreachable []string       `json:"unreachable,omitempty"`
	Spans       []obs.SpanSnap `json:"spans"`
}

// traceSegment pairs one node's snapshot with its origin for stitching.
type traceSegment struct {
	node string
	snap obs.TraceSnapshot
}

// handleFederatedTrace serves GET /v1/traces/{id} in router mode. A
// request carrying federationHeader is a peer's fan-out leg and is
// answered from the local store only (the loop guard); anything else
// fans out to the ring and stitches.
func (rt *Router) handleFederatedTrace(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(federationHeader) != "" {
		rt.srv.handleTrace(w, r)
		return
	}
	id := r.PathValue("id")
	local, haveLocal := rt.srv.traces.Get(id)
	var (
		mu          sync.Mutex
		segments    []traceSegment
		unreachable []string
	)
	if haveLocal {
		segments = append(segments, traceSegment{node: rt.cfg.Self, snap: local})
	}
	var wg sync.WaitGroup
	for _, node := range rt.view().Members {
		if node == rt.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			// A federation leg: the peer answers from its own store only.
			var snap obs.TraceSnapshot
			status, err := rt.peerGet(r.Context(), node, "/v1/traces/"+id, &snap)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				segments = append(segments, traceSegment{node: node, snap: snap})
			case status == http.StatusNotFound:
				// The peer answered; it just never saw this trace.
			default:
				unreachable = append(unreachable, node)
			}
		}(node)
	}
	wg.Wait()
	if len(segments) == 0 {
		writeError(w, r, fmt.Errorf("%w: %q (checked %d ring peers)",
			ErrTraceNotFound, id, len(rt.view().Members)))
		return
	}
	writeJSON(w, http.StatusOK, stitchTrace(segments, unreachable))
}

// stitchTrace merges per-node segments into one FleetTrace. Segments are
// ordered by node name and each segment's span order is preserved, so
// the stitched tree is deterministic regardless of fan-out completion
// order. The root identity (name, start) comes from the earliest-starting
// segment — the hop the client actually hit.
func stitchTrace(segments []traceSegment, unreachable []string) FleetTrace {
	sort.Slice(segments, func(i, j int) bool { return segments[i].node < segments[j].node })
	sort.Strings(unreachable)
	root := segments[0]
	for _, seg := range segments[1:] {
		if seg.snap.Start.Before(root.snap.Start) {
			root = seg
		}
	}
	ft := FleetTrace{
		TraceID:     root.snap.TraceID,
		Name:        root.snap.Name,
		Start:       root.snap.Start,
		Unreachable: unreachable,
	}
	end := root.snap.Start
	for _, seg := range segments {
		ft.Nodes = append(ft.Nodes, seg.node)
		ft.Error = ft.Error || seg.snap.Error
		if e := seg.snap.Start.Add(time.Duration(seg.snap.DurUS) * time.Microsecond); e.After(end) {
			end = e
		}
		for _, sp := range seg.snap.Spans {
			sp.Node = seg.node
			ft.Spans = append(ft.Spans, sp)
		}
	}
	ft.DurUS = end.Sub(ft.Start).Microseconds()
	return ft
}

// FleetNodeReport is one member's slice of the fleet report. Unreachable
// marks a peer whose stats scrape failed within the deadline; its other
// fields are then absent and the report is explicitly partial.
type FleetNodeReport struct {
	Node        string     `json:"node"`
	Unreachable bool       `json:"unreachable,omitempty"`
	Error       string     `json:"error,omitempty"`
	Stats       *Stats     `json:"stats,omitempty"`
	SLO         *SLOReport `json:"slo,omitempty"`
}

// FleetSummary is the merged-counter block of the fleet report.
type FleetSummary struct {
	// Sessions sums live local sessions across reachable members;
	// OwnedSessions sums ring-owned ones (shard routing mode only).
	Sessions      int   `json:"sessions"`
	OwnedSessions int   `json:"owned_sessions"`
	Windows       int64 `json:"windows"`
	Forwards      int64 `json:"forwards"`
	Failovers     int64 `json:"failovers"`
	ReplayQueue   int   `json:"replay_queue"`
	// WorstLongBurn maps each SLO objective to the worst long-window burn
	// rate any member reports — the fleet burns as fast as its hottest
	// replica. Breaching lists node:objective pairs currently breaching.
	WorstLongBurn map[string]float64 `json:"worst_long_burn,omitempty"`
	Breaching     []string           `json:"breaching,omitempty"`
}

// FleetInvariants are the ring-wide health checks the report computes
// over its reachable members.
type FleetInvariants struct {
	// EpochAgreement: every reachable member reports the scraper's ring
	// epoch (no straggler serving under a stale view).
	EpochAgreement bool `json:"epoch_agreement"`
	// SessionsConsistent: Σ local live sessions == Σ ring-owned sessions —
	// no forgotten failover copies pending hand-back.
	SessionsConsistent bool `json:"sessions_consistent"`
	// ReplayQueuesEmpty: no member holds undurable write-behind state.
	ReplayQueuesEmpty bool `json:"replay_queues_empty"`
	// AllReachable: every member answered the scrape; when false the other
	// invariants cover only the members that did.
	AllReachable bool `json:"all_reachable"`
}

// FleetReport is the GET /v1/fleet body.
type FleetReport struct {
	Self       string            `json:"self"`
	Epoch      uint64            `json:"epoch"`
	Members    []string          `json:"members"`
	Nodes      []FleetNodeReport `json:"nodes"`
	Summary    FleetSummary      `json:"summary"`
	Invariants FleetInvariants   `json:"invariants"`
	// Events is every member's journal segment merged into one stream
	// ordered by (epoch, node, seq) — identical no matter which replica
	// built the report.
	Events []obs.JournalEvent `json:"events"`
}

// handleFleet serves the federated fleet report in router mode.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	v := rt.view()
	nodes := v.Members
	if !v.Contains(rt.cfg.Self) {
		// A standby/drained replica still reports itself alongside the ring.
		nodes = append([]string{rt.cfg.Self}, v.Members...)
	}
	reports := make([]FleetNodeReport, len(nodes))
	segments := make([][]obs.JournalEvent, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		if node == rt.cfg.Self {
			st := rt.srv.Stats()
			slo := rt.srv.SLOReportNow()
			reports[i] = FleetNodeReport{Node: node, Stats: &st, SLO: &slo}
			segments[i] = rt.srv.journal.Events()
			continue
		}
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			reports[i], segments[i] = rt.scrapePeer(r.Context(), node)
		}(i, node)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, buildFleetReport(rt.cfg.Self, v.Epoch, v.Members, reports, segments))
}

// scrapePeer collects one peer's stats, SLO report, and journal segment.
// A failed stats fetch marks the peer unreachable; SLO/events failures
// leave those blocks absent but keep the stats — partial beats missing.
func (rt *Router) scrapePeer(ctx context.Context, node string) (FleetNodeReport, []obs.JournalEvent) {
	rep := FleetNodeReport{Node: node}
	var st Stats
	if _, err := rt.peerGet(ctx, node, "/v1/stats", &st); err != nil {
		rep.Unreachable = true
		rep.Error = err.Error()
		return rep, nil
	}
	rep.Stats = &st
	var slo SLOReport
	if _, err := rt.peerGet(ctx, node, "/v1/slo", &slo); err == nil {
		rep.SLO = &slo
	}
	var evs EventsResponse
	if _, err := rt.peerGet(ctx, node, "/v1/events", &evs); err != nil {
		return rep, nil
	}
	return rep, evs.Events
}

// buildFleetReport merges per-node reports into the fleet view: summed
// counters, worst-case burn rates, ring invariants, and the causally
// ordered event stream.
func buildFleetReport(self string, epoch uint64, members []string,
	reports []FleetNodeReport, segments [][]obs.JournalEvent) FleetReport {
	sum := FleetSummary{WorstLongBurn: map[string]float64{}}
	inv := FleetInvariants{
		EpochAgreement:     true,
		SessionsConsistent: true,
		ReplayQueuesEmpty:  true,
		AllReachable:       true,
	}
	localTotal, ownedTotal := 0, 0
	for _, nr := range reports {
		if nr.Unreachable {
			inv.AllReachable = false
			continue
		}
		st := nr.Stats
		if st == nil {
			continue
		}
		sum.Sessions += st.Sessions
		sum.Windows += st.Windows
		if st.Shard != nil {
			sum.OwnedSessions += st.Shard.OwnedSessions
			localTotal += st.Shard.LocalSessions
			ownedTotal += st.Shard.OwnedSessions
			sum.Forwards += st.Shard.Forwards
			sum.Failovers += st.Shard.Failovers
		}
		if st.WriteBehind != nil {
			sum.ReplayQueue += st.WriteBehind.Queue
			if st.WriteBehind.Queue > 0 {
				inv.ReplayQueuesEmpty = false
			}
		}
		if st.Membership != nil && epoch != 0 && st.Membership.Epoch != epoch {
			inv.EpochAgreement = false
		}
		if nr.SLO != nil && nr.SLO.SLO != nil {
			for _, o := range nr.SLO.SLO.Objectives {
				if o.LongBurn > sum.WorstLongBurn[o.Name] {
					sum.WorstLongBurn[o.Name] = o.LongBurn
				}
				if o.Breaching {
					sum.Breaching = append(sum.Breaching, nr.Node+":"+o.Name)
				}
			}
		}
	}
	inv.SessionsConsistent = localTotal == ownedTotal
	sort.Strings(sum.Breaching)
	return FleetReport{
		Self:       self,
		Epoch:      epoch,
		Members:    members,
		Nodes:      reports,
		Summary:    sum,
		Invariants: inv,
		Events:     obs.MergeEvents(segments...),
	}
}
