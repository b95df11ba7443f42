package store_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// Both backends run the identical conformance suite; a behavioural
// difference between them fails here, not in production.

func TestMemConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) (store.Store, func(t *testing.T) store.Store) {
		return store.NewMem(), nil // memory has no crash durability
	})
}

func TestFileConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) (store.Store, func(t *testing.T) store.Store) {
		dir := t.TempDir()
		s, err := store.NewFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		reopen := func(t *testing.T) store.Store {
			s2, err := store.NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s2
		}
		return s, reopen
	})
}

// TestFileLockFileStates pins the file lease beyond the shared suite: a
// lock file found empty or cut short is contention (ErrLocked), garbage
// is ErrCorrupt, and acquisition leaves no tmp file behind in locks/.
func TestFileLockFileStates(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := store.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	lockFile := filepath.Join(dir, "locks", "k.lock")
	for _, tc := range []struct {
		body string
		want error
	}{
		{"", store.ErrLocked},
		{`{"owner":"a","tok`, store.ErrLocked},
		{"not a lease", store.ErrCorrupt},
	} {
		if err := os.WriteFile(lockFile, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lock(ctx, "k", "b", time.Minute); !errors.Is(err, tc.want) {
			t.Fatalf("Lock over lock file %q = %v, want %v", tc.body, err, tc.want)
		}
	}
	if err := os.Remove(lockFile); err != nil {
		t.Fatal(err)
	}
	l, err := s.Lock(ctx, "k", "a", time.Minute)
	if err != nil {
		t.Fatalf("fresh Lock: %v", err)
	}
	if _, err := s.Lock(ctx, "k", "b", time.Minute); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("contended Lock = %v, want ErrLocked", err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "locks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "k.lock" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("locks/ holds %q, want only k.lock", names)
	}
	if err := l.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
}
