// Package store is the durable state layer under multi-replica
// clear-serve: session records, fine-tuned checkpoint blobs, and the
// per-session leases that keep exactly one replica fine-tuning a user at
// a time. The design cribs claircore's datastore split — a narrow
// interface pair with swappable backends, content-addressed immutable
// blobs, and a lock source — scaled down to this repo's needs.
//
// Three concerns, one Store:
//
//   - SessionStore: opaque per-session records keyed by session ID. The
//     serving layer owns the encoding (core.WriteHeader framing, see
//     internal/serve/snapshot.go); the store only promises bitwise
//     round-trips, which the storetest conformance suite asserts.
//   - CheckpointStore: content-addressed blobs plus tiny named manifests.
//     A fine-tuned model is stored as a manifest referencing two blobs —
//     the cluster baseline it started from and the fine-tuned weights —
//     so every user fine-tuned from cluster k's baseline shares one
//     physical baseline blob. PutBlob reports whether it created the blob,
//     making the dedup directly observable.
//   - LockSource: TTL leases. A replica takes "ft:<session>" before
//     fine-tuning; a second replica racing for the same user gets
//     ErrLocked and backs off. TTLs bound how long a crashed holder can
//     wedge a key.
//
// Backends: Mem (tests, single-process), File (durable, shared directory
// across local replicas). Both are exercised by the same conformance
// suite in storetest.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Errors every backend maps its internal failures onto, so callers can
// errors.Is without knowing the backend.
var (
	// ErrNotFound reports a missing session, blob, or checkpoint key.
	ErrNotFound = errors.New("store: not found")
	// ErrLocked reports a lease already held by another owner.
	ErrLocked = errors.New("store: lease held")
	// ErrLeaseLost reports a Release of a lease that expired and was
	// taken over (or released) out from under the holder.
	ErrLeaseLost = errors.New("store: lease lost")
	// ErrCorrupt reports stored bytes failing their integrity check
	// (digest mismatch, bad framing) — surfaced, never silently dropped.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrFenced reports a fenced session write losing to a record already
	// stored under a newer fence — a lagging ex-owner trying to clobber
	// the new owner's state. The write was not applied; the caller must
	// not retry it (the state it holds is stale by construction).
	ErrFenced = errors.New("store: write fenced off by newer record")
)

// Fence orders session writes across ownership changes: Epoch is the
// ring-membership epoch the writer served under, Seq the writer's
// session sequence. Ordering is epoch-first, then seq — an owner under a
// newer ring epoch always dominates a lagging ex-owner regardless of how
// many writes the ex-owner buffered.
type Fence struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// Before reports whether f is strictly older than g.
func (f Fence) Before(g Fence) bool {
	if f.Epoch != g.Epoch {
		return f.Epoch < g.Epoch
	}
	return f.Seq < g.Seq
}

// Digest is a content address: "sha256:<64 hex chars>". The digest of a
// blob is derived from its bytes alone, so two replicas writing the same
// cluster baseline produce one physical blob.
type Digest string

// DigestOf returns the content address of data.
func DigestOf(data []byte) Digest {
	sum := sha256.Sum256(data)
	return Digest("sha256:" + hex.EncodeToString(sum[:]))
}

// Valid reports whether d is a well-formed sha256 digest.
func (d Digest) Valid() bool {
	s, ok := strings.CutPrefix(string(d), "sha256:")
	if !ok || len(s) != 64 {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// Hex returns the hex portion of the digest (file backends use it as the
// blob filename).
func (d Digest) Hex() string {
	s, _ := strings.CutPrefix(string(d), "sha256:")
	return s
}

// Checkpoint is the manifest for one session's personalised model: which
// cluster baseline it started from and the fine-tuned weights it landed
// on, both as blob references. Manifests are tiny and mutable (a session
// may fine-tune again after drift re-assignment); blobs are immutable.
type Checkpoint struct {
	// Key is the manifest name, conventionally the session ID.
	Key string `json:"key"`
	// Cluster is the archetype cluster the baseline belongs to.
	Cluster int `json:"cluster"`
	// Base is the cluster-baseline blob the fine-tune started from.
	Base Digest `json:"base"`
	// Fine is the fine-tuned weights blob.
	Fine Digest `json:"fine"`
	// Labels is how many user labels had been absorbed when the
	// checkpoint was cut — lets a hydrating replica skip replaying them.
	Labels int `json:"labels"`
}

// SessionStore persists opaque per-session records.
type SessionStore interface {
	// PutSession durably stores data under id, replacing any prior record.
	// Unfenced puts carry the zero Fence and always win — the pre-fencing
	// behavior, kept for tooling; the serving layer always fences.
	PutSession(ctx context.Context, id string, data []byte) error
	// PutSessionFenced conditionally stores data under id: if the stored
	// record carries a fence strictly newer than f, the write is rejected
	// with ErrFenced and the stored record is untouched. Writes at an
	// equal fence are idempotent replays and are applied.
	PutSessionFenced(ctx context.Context, id string, f Fence, data []byte) error
	// GetSession returns the record for id, or ErrNotFound.
	GetSession(ctx context.Context, id string) ([]byte, error)
	// DeleteSession removes id's record. Deleting a missing id is a no-op.
	DeleteSession(ctx context.Context, id string) error
	// ListSessions returns the IDs of every stored session.
	ListSessions(ctx context.Context) ([]string, error)
}

// CheckpointStore persists content-addressed blobs and named checkpoint
// manifests referencing them.
type CheckpointStore interface {
	// PutBlob stores data at its content address. created reports whether
	// a new physical blob was written (false = deduplicated).
	PutBlob(ctx context.Context, data []byte) (d Digest, created bool, err error)
	// GetBlob returns the bytes at d, verifying them against the digest.
	// Missing blobs return ErrNotFound; mismatches return ErrCorrupt.
	GetBlob(ctx context.Context, d Digest) ([]byte, error)
	// PutCheckpoint stores ck's manifest under ck.Key, replacing any
	// prior manifest. The referenced blobs must already exist.
	PutCheckpoint(ctx context.Context, ck Checkpoint) error
	// GetCheckpoint returns the manifest under key, or ErrNotFound.
	GetCheckpoint(ctx context.Context, key string) (Checkpoint, error)
	// DeleteCheckpoint removes the manifest under key (blobs stay — they
	// may be shared). Deleting a missing key is a no-op.
	DeleteCheckpoint(ctx context.Context, key string) error
}

// Lease is a held TTL lock. The holder must Release when done; the TTL
// is fixed at Lock, so a holder must finish well inside it.
type Lease interface {
	// Release drops the lease so other owners can take it. It returns
	// ErrLeaseLost if the lease expired and another owner took it over
	// in the meantime.
	Release() error
}

// LockSource grants per-key TTL leases.
type LockSource interface {
	// Lock acquires key for owner with the given ttl. A live lease held
	// by someone else returns ErrLocked; an expired lease is taken over.
	Lock(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error)
}

// Stats is a point-in-time census of a store, surfaced via /v1/stats.
type Stats struct {
	Backend     string `json:"backend"`
	Sessions    int    `json:"sessions"`
	Checkpoints int    `json:"checkpoints"`
	// BlobsPhysical counts distinct stored blobs; BlobsLogical counts
	// manifest references to blobs. Logical > physical means
	// content-addressing is deduplicating (shared cluster baselines).
	BlobsPhysical int     `json:"blobs_physical"`
	BlobsLogical  int     `json:"blobs_logical"`
	BlobBytes     int64   `json:"blob_bytes"`
	DedupRatio    float64 `json:"dedup_ratio"`
	LocksHeld     int     `json:"locks_held"`
}

// Store is the full state layer a clear-serve replica binds to.
type Store interface {
	SessionStore
	CheckpointStore
	LockSource
	// Backend names the implementation ("mem", "file") for metrics.
	Backend() string
	// Stats returns a point-in-time census.
	Stats() Stats
	// Close releases backend resources. Operations after Close return
	// ErrClosed.
	Close() error
}

// Store op metrics, shared by all backends: a counter per {backend, op}
// and a latency histogram per backend (1µs–32s exponential buckets,
// matching the serve-layer stage histograms).
var (
	mStoreOps   = obs.GetCounterVec("store.ops", "backend", "op")
	mStoreErrs  = obs.GetCounterVec("store.op_errors", "backend", "op")
	hStoreLatUS = obs.GetHistogramVec("store.op_latency_us", obs.ExpBuckets(1, 2, 26), "backend")
)

// instrument records one store op: count, error count, latency. Backends
// wrap every public op in it so the store_ops / store_op_latency_us
// families stay uniform across implementations.
func instrument(backend, op string, start time.Time, err error) {
	mStoreOps.With(backend, op).Inc()
	if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrLocked) {
		// Not-found and lease-held are expected control flow, not faults.
		mStoreErrs.With(backend, op).Inc()
	}
	hStoreLatUS.With(backend).Observe(float64(time.Since(start).Microseconds()))
}

// dedupRatio computes logical/physical, defined as 1 when nothing is
// stored so dashboards start at "no dedup" rather than NaN.
func dedupRatio(logical, physical int) float64 {
	if physical == 0 {
		return 1
	}
	return float64(logical) / float64(physical)
}

// checkCtx folds context cancellation into the store error space.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
