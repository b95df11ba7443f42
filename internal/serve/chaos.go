package serve

// Runtime chaos admin: POST /v1/chaos arms time-bounded fault windows on
// a live replica, so a chaos harness (clear-loadgen -chaos, the CI
// store-outage smoke) can kill the store or partition a node mid-run
// without restarting anything. Gated behind Config.ChaosAdmin — a
// production deployment never mounts this behaviour.
//
// Two windows:
//
//   - store_outage_ms: arms the shared fault injector's StorePutFail
//     point at rate 1.0 for the window — every store write fails, which
//     drives the write-behind path (replay queue, store breaker,
//     durability admission control). Reads keep working, like a disk
//     gone read-only; auto-disarms when the window ends.
//   - partition_ms: an inbound partition. Every request (except
//     /v1/chaos itself) stalls until the window ends and then answers
//     503 + Retry-After WITHOUT reaching its handler — so peers' healthz
//     probes time out and mark the node down, forwarded requests hit
//     their forward deadline and hedge to the failover owner, and no
//     stalled request is ever half-applied after the client gave up.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosState tracks armed windows. gen guards auto-disarm against a
// newer overlapping window.
type chaosState struct {
	mu         sync.Mutex
	gen        int64
	storeUntil time.Time
}

// ChaosRequest is the POST /v1/chaos body; zero fields are ignored.
type ChaosRequest struct {
	// StoreOutageMS arms StorePutFail at rate 1.0 for this many ms.
	StoreOutageMS int64 `json:"store_outage_ms,omitempty"`
	// PartitionMS arms the inbound partition gate for this many ms.
	PartitionMS int64 `json:"partition_ms,omitempty"`
}

// ChaosResponse reports the armed windows' deadlines (Unix ms; 0 = off).
type ChaosResponse struct {
	StoreOutageUntilMS int64 `json:"store_outage_until_ms"`
	PartitionUntilMS   int64 `json:"partition_until_ms"`
}

// handleChaos arms the requested windows.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.ChaosAdmin {
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "chaos admin disabled"})
		return
	}
	var req ChaosRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if req.StoreOutageMS > 0 {
		if s.cfg.Fault == nil {
			writeError(w, r, fmt.Errorf("%w: store outage needs a fault injector (clear-serve -chaos-admin)", ErrBadRequest))
			return
		}
		s.armStoreOutage(time.Duration(req.StoreOutageMS) * time.Millisecond)
	}
	if req.PartitionMS > 0 {
		s.armPartition(time.Duration(req.PartitionMS) * time.Millisecond)
	}
	writeJSON(w, http.StatusOK, s.chaosStatus())
}

// armStoreOutage fails every store write for d via the shared injector.
func (s *Server) armStoreOutage(d time.Duration) {
	s.chaos.mu.Lock()
	s.chaos.gen++
	gen := s.chaos.gen
	s.chaos.storeUntil = time.Now().Add(d)
	s.chaos.mu.Unlock()
	s.cfg.Fault.Enable(fault.StorePutFail, 1)
	obs.Logger().Warn("chaos: store outage armed", "for", d.String())
	s.journal.Record(context.Background(), "chaos", "store outage armed for %s", d)
	time.AfterFunc(d, func() {
		s.chaos.mu.Lock()
		stale := s.chaos.gen != gen
		s.chaos.mu.Unlock()
		if stale {
			return // a newer overlapping window owns the disarm
		}
		s.cfg.Fault.Enable(fault.StorePutFail, 0)
		obs.Logger().Warn("chaos: store outage cleared")
	})
}

// armPartition stalls all inbound requests until now+d.
func (s *Server) armPartition(d time.Duration) {
	atomic.StoreInt64(&s.partUntil, time.Now().Add(d).UnixNano())
	obs.Logger().Warn("chaos: inbound partition armed", "for", d.String())
	s.journal.Record(context.Background(), "chaos", "inbound partition armed for %s", d)
}

func (s *Server) chaosStatus() ChaosResponse {
	var resp ChaosResponse
	s.chaos.mu.Lock()
	if until := s.chaos.storeUntil; !until.IsZero() && time.Now().Before(until) {
		resp.StoreOutageUntilMS = until.UnixMilli()
	}
	s.chaos.mu.Unlock()
	if until := atomic.LoadInt64(&s.partUntil); until > time.Now().UnixNano() {
		resp.PartitionUntilMS = time.Unix(0, until).UnixMilli()
	}
	return resp
}

// chaosGate wraps a handler chain with the partition gate. Unarmed (the
// overwhelming default) it costs one atomic load per request. It also
// stamps X-Clear-Node (this replica's node name) on every response —
// being the outermost wrapper on both the single-node and router muxes,
// it gives one-glance serving-node attribution on every path. A proxied
// response relays the owner's header instead (router.go drops this one
// before copying the upstream's), so the header always names the replica
// whose handler produced the body.
func (s *Server) chaosGate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(nodeHeader, s.cfg.Self)
		until := atomic.LoadInt64(&s.partUntil)
		if until == 0 || time.Now().UnixNano() >= until {
			h.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/v1/chaos" {
			h.ServeHTTP(w, r) // the harness can always re-arm / inspect
			return
		}
		// Hold the request for the remainder of the window (a partitioned
		// node is silent, not fast-failing), then refuse WITHOUT invoking
		// the handler — a caller that timed out and hedged elsewhere must
		// never have its request half-applied here afterwards.
		select {
		case <-time.After(time.Until(time.Unix(0, until))):
		case <-r.Context().Done():
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
}
