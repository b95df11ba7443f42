package store_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// The fault wrapper with no points armed must be indistinguishable from
// the backend it wraps: the full conformance suite runs through it.
func TestFaultConformanceUnarmed(t *testing.T) {
	storetest.Run(t, func(t *testing.T) (store.Store, func(t *testing.T) store.Store) {
		return store.WithFault(store.NewMem(), fault.New(1)), nil
	})
}

// A nil injector is the documented production no-op.
func TestFaultConformanceNilInjector(t *testing.T) {
	storetest.Run(t, func(t *testing.T) (store.Store, func(t *testing.T) store.Store) {
		return store.WithFault(store.NewMem(), nil), nil
	})
}

func TestFaultPutFail(t *testing.T) {
	inj := fault.New(42)
	inj.Enable(fault.StorePutFail, 1)
	fs := store.WithFault(store.NewMem(), inj)
	ctx := context.Background()

	if err := fs.PutSession(ctx, "s1", []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("PutSession err = %v, want ErrInjected", err)
	}
	if _, _, err := fs.PutBlob(ctx, []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("PutBlob err = %v, want ErrInjected", err)
	}
	if err := fs.PutCheckpoint(ctx, store.Checkpoint{Key: "k"}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("PutCheckpoint err = %v, want ErrInjected", err)
	}
	if err := fs.DeleteSession(ctx, "s1"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("DeleteSession err = %v, want ErrInjected", err)
	}
	if _, err := fs.Lock(ctx, "k", "me", time.Second); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Lock err = %v, want ErrInjected", err)
	}
	// Write-behind queues a failed persist for replay on any error but
	// ErrFenced; serving persists only through the fenced put.
	if err := fs.PutSessionFenced(ctx, "s1", store.Fence{Epoch: 1}, []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("PutSessionFenced err = %v, want ErrInjected", err)
	}
	// Disarm: the same wrapper serves normally again.
	inj.Enable(fault.StorePutFail, 0)
	if err := fs.PutSession(ctx, "s1", []byte("x")); err != nil {
		t.Fatalf("PutSession after disarm: %v", err)
	}
}
