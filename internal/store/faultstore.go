package store

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
)

// Fault wraps a Store with deterministic fault injection driven by the
// shared injector from internal/fault. With no points armed (or a nil
// injector) every call is a straight delegate — the wrapper passes the
// storetest conformance suite untouched — so chaos runs can leave it
// installed permanently and arm points at runtime.
//
// One injection site: StorePutFail fails every write (PutSession,
// PutSessionFenced, PutBlob, PutCheckpoint, DeleteSession,
// DeleteCheckpoint, Lock) with an ErrInjected-wrapped error, simulating a
// store outage. Reads, Backend, Stats and Close reach the embedded store
// untouched, like a disk gone read-only. The serving layer's write-behind
// (replay queue, store breaker, periodic FlushAll) absorbs the failures;
// nothing in this package retries.
type Fault struct {
	Store
	inj *fault.Injector
}

// WithFault wraps inner with injection from inj. A nil inj is legal and
// makes the wrapper a pure pass-through.
func WithFault(inner Store, inj *fault.Injector) *Fault {
	return &Fault{Store: inner, inj: inj}
}

// putErr synthesises the injected write failure for op.
func putErr(op string) error {
	return fmt.Errorf("store: %s: %w", op, fault.ErrInjected)
}

// PutSession implements SessionStore.
func (f *Fault) PutSession(ctx context.Context, id string, data []byte) error {
	if f.inj.Fire(fault.StorePutFail) {
		return putErr("put_session")
	}
	return f.Store.PutSession(ctx, id, data)
}

// PutSessionFenced implements SessionStore.
func (f *Fault) PutSessionFenced(ctx context.Context, id string, fc Fence, data []byte) error {
	if f.inj.Fire(fault.StorePutFail) {
		return putErr("put_session_fenced")
	}
	return f.Store.PutSessionFenced(ctx, id, fc, data)
}

// DeleteSession implements SessionStore.
func (f *Fault) DeleteSession(ctx context.Context, id string) error {
	if f.inj.Fire(fault.StorePutFail) {
		return putErr("delete_session")
	}
	return f.Store.DeleteSession(ctx, id)
}

// PutBlob implements CheckpointStore.
func (f *Fault) PutBlob(ctx context.Context, data []byte) (Digest, bool, error) {
	if f.inj.Fire(fault.StorePutFail) {
		return "", false, putErr("put_blob")
	}
	return f.Store.PutBlob(ctx, data)
}

// PutCheckpoint implements CheckpointStore.
func (f *Fault) PutCheckpoint(ctx context.Context, ck Checkpoint) error {
	if f.inj.Fire(fault.StorePutFail) {
		return putErr("put_checkpoint")
	}
	return f.Store.PutCheckpoint(ctx, ck)
}

// DeleteCheckpoint implements CheckpointStore.
func (f *Fault) DeleteCheckpoint(ctx context.Context, key string) error {
	if f.inj.Fire(fault.StorePutFail) {
		return putErr("delete_checkpoint")
	}
	return f.Store.DeleteCheckpoint(ctx, key)
}

// Lock implements LockSource.
func (f *Fault) Lock(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error) {
	if f.inj.Fire(fault.StorePutFail) {
		return nil, putErr("lock")
	}
	return f.Store.Lock(ctx, key, owner, ttl)
}
