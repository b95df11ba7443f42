// Package storetest is the backend-agnostic conformance suite for
// store.Store implementations. Both shipped backends (mem, file) run the
// same suite, so a behavioural difference between them is a test failure,
// not a production surprise. A future backend (e.g. a real KV service)
// passes by running Run against its constructor.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// Factory builds a fresh, empty store for one subtest. reopen, if
// non-nil, simulates a process crash and restart: it must return a new
// handle onto the same underlying state WITHOUT any flush/close of the
// original (durable backends return a second handle; memory backends
// return nil to skip crash tests).
type Factory func(t *testing.T) (s store.Store, reopen func(t *testing.T) store.Store)

// Run executes the full conformance suite against the backend the
// factory builds.
func Run(t *testing.T, newStore Factory) {
	t.Run("SessionRoundTrip", func(t *testing.T) { testSessionRoundTrip(t, newStore) })
	t.Run("SessionOverwriteDelete", func(t *testing.T) { testSessionOverwriteDelete(t, newStore) })
	t.Run("SessionFencedPut", func(t *testing.T) { testSessionFencedPut(t, newStore) })
	t.Run("BlobContentAddress", func(t *testing.T) { testBlobContentAddress(t, newStore) })
	t.Run("CheckpointManifest", func(t *testing.T) { testCheckpointManifest(t, newStore) })
	t.Run("CheckpointRoundTripBitwise", func(t *testing.T) { testCheckpointBitwise(t, newStore) })
	t.Run("LeaseExclusion", func(t *testing.T) { testLeaseExclusion(t, newStore) })
	t.Run("LeaseExpiryTakeover", func(t *testing.T) { testLeaseExpiryTakeover(t, newStore) })
	t.Run("LeaseContention", func(t *testing.T) { testLeaseContention(t, newStore) })
	t.Run("HydrateAfterCrash", func(t *testing.T) { testHydrateAfterCrash(t, newStore) })
	t.Run("Stats", func(t *testing.T) { testStats(t, newStore) })
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// randBytes returns deterministic pseudo-random payloads — binary, with
// zero bytes and high bytes, to catch any backend that treats records as
// text.
func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func testSessionRoundTrip(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	// IDs include ring-prefixed ("n1-s000001") and hostile characters the
	// file backend must escape.
	ids := []string{"s000001", "n1-s000042", "user/7#x", "..", "a b%c"}
	for i, id := range ids {
		want := randBytes(int64(i+1), 1024+i*257)
		if err := s.PutSession(ctx, id, want); err != nil {
			t.Fatalf("PutSession(%q): %v", id, err)
		}
		got, err := s.GetSession(ctx, id)
		if err != nil {
			t.Fatalf("GetSession(%q): %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("session %q: %d bytes in, %d out, mismatch", id, len(want), len(got))
		}
	}
	list, err := s.ListSessions(ctx)
	if err != nil {
		t.Fatalf("ListSessions: %v", err)
	}
	if len(list) != len(ids) {
		t.Fatalf("ListSessions = %d ids, want %d (%q)", len(list), len(ids), list)
	}
	if _, err := s.GetSession(ctx, "never-stored"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing session err = %v, want ErrNotFound", err)
	}
}

func testSessionOverwriteDelete(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	id := "s000007"
	if err := s.PutSession(ctx, id, randBytes(1, 512)); err != nil {
		t.Fatal(err)
	}
	want := randBytes(2, 2048) // overwrite with different size
	if err := s.PutSession(ctx, id, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetSession(ctx, id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("overwrite not visible: err=%v", err)
	}
	if err := s.DeleteSession(ctx, id); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := s.GetSession(ctx, id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("deleted session err = %v, want ErrNotFound", err)
	}
	if err := s.DeleteSession(ctx, id); err != nil {
		t.Fatalf("double delete must be a no-op, got %v", err)
	}
}

// testSessionFencedPut pins the conditional-put contract that fences
// ownership churn: a strictly older fence loses with ErrFenced and the
// stored bytes are untouched; equal fences are idempotent replays;
// epoch dominates seq; unfenced puts reset the fence and always win.
func testSessionFencedPut(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	id := "s000033"

	newOwner := randBytes(10, 1024)
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 3, Seq: 9}, newOwner); err != nil {
		t.Fatalf("first fenced put: %v", err)
	}
	// A lagging ex-owner under an older epoch loses, even at higher seq.
	stale := randBytes(11, 1024)
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 2, Seq: 999}, stale); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale-epoch put err = %v, want ErrFenced", err)
	}
	// Same epoch, older seq loses too.
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 3, Seq: 8}, stale); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale-seq put err = %v, want ErrFenced", err)
	}
	got, err := s.GetSession(ctx, id)
	if err != nil || !bytes.Equal(got, newOwner) {
		t.Fatalf("fenced-off write mutated the record: err=%v", err)
	}
	// Equal fence: idempotent replay, applied.
	replay := randBytes(12, 512)
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 3, Seq: 9}, replay); err != nil {
		t.Fatalf("equal-fence replay: %v", err)
	}
	// Newer seq within the epoch, then a newer epoch, both win.
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 3, Seq: 10}, randBytes(13, 512)); err != nil {
		t.Fatalf("newer-seq put: %v", err)
	}
	next := randBytes(14, 512)
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 4, Seq: 0}, next); err != nil {
		t.Fatalf("newer-epoch put: %v", err)
	}
	got, err = s.GetSession(ctx, id)
	if err != nil || !bytes.Equal(got, next) {
		t.Fatalf("newer-epoch write not visible: err=%v", err)
	}
	// Unfenced put resets the fence: it wins, and a later fenced put at
	// any epoch wins over it.
	plain := randBytes(15, 256)
	if err := s.PutSession(ctx, id, plain); err != nil {
		t.Fatalf("unfenced overwrite: %v", err)
	}
	got, err = s.GetSession(ctx, id)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("unfenced overwrite not visible: err=%v", err)
	}
	if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 1, Seq: 1}, randBytes(16, 256)); err != nil {
		t.Fatalf("fenced put after unfenced reset: %v", err)
	}
	// A fenced put on a missing id is a plain create.
	if err := s.PutSessionFenced(ctx, "fresh-id", store.Fence{Epoch: 9, Seq: 1}, randBytes(17, 128)); err != nil {
		t.Fatalf("fenced create: %v", err)
	}
}

func testBlobContentAddress(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	data := randBytes(3, 4096)
	d1, created, err := s.PutBlob(ctx, data)
	if err != nil || !created {
		t.Fatalf("first PutBlob: created=%v err=%v", created, err)
	}
	if d1 != store.DigestOf(data) || !d1.Valid() {
		t.Fatalf("digest %q does not match content", d1)
	}
	// Same bytes again: deduplicated, same address.
	d2, created, err := s.PutBlob(ctx, append([]byte(nil), data...))
	if err != nil || created || d2 != d1 {
		t.Fatalf("dedup PutBlob: d=%q created=%v err=%v", d2, created, err)
	}
	got, err := s.GetBlob(ctx, d1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetBlob: err=%v", err)
	}
	missing := store.DigestOf([]byte("not stored"))
	if _, err := s.GetBlob(ctx, missing); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("GetBlob(missing) err = %v, want ErrNotFound", err)
	}
}

func testCheckpointManifest(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	base := randBytes(4, 8192)
	fine := randBytes(5, 8192)
	db, _, err := s.PutBlob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	df, _, err := s.PutBlob(ctx, fine)
	if err != nil {
		t.Fatal(err)
	}
	ck := store.Checkpoint{Key: "s000001", Cluster: 3, Base: db, Fine: df, Labels: 12}
	if err := s.PutCheckpoint(ctx, ck); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	got, err := s.GetCheckpoint(ctx, ck.Key)
	if err != nil || got != ck {
		t.Fatalf("GetCheckpoint = %+v, %v; want %+v", got, err, ck)
	}
	// Manifests referencing missing blobs are rejected, not stored broken.
	bad := store.Checkpoint{Key: "sX", Cluster: 0, Base: db, Fine: store.DigestOf([]byte("gone"))}
	if err := s.PutCheckpoint(ctx, bad); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("dangling manifest err = %v, want ErrNotFound", err)
	}
	if err := s.DeleteCheckpoint(ctx, ck.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCheckpoint(ctx, ck.Key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("deleted manifest err = %v, want ErrNotFound", err)
	}
	// Blobs survive manifest deletion — they may be shared.
	if got, err := s.GetBlob(ctx, db); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("base blob vanished with its manifest: err=%v", err)
	}
}

// testCheckpointBitwise is the issue's "bitwise checkpoint round-trip":
// the full base+fine blob pair of two checkpoints sharing a baseline
// comes back byte-identical, and the shared baseline is one physical blob.
func testCheckpointBitwise(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	base := randBytes(6, 64*1024) // cluster baseline, shared
	fineA := randBytes(7, 64*1024)
	fineB := randBytes(8, 64*1024)

	db, createdBase, err := s.PutBlob(ctx, base)
	if err != nil || !createdBase {
		t.Fatal(err)
	}
	dA, _, _ := s.PutBlob(ctx, fineA)
	// Replica 2 re-pushes the same baseline before its own fine blob.
	db2, createdAgain, err := s.PutBlob(ctx, base)
	if err != nil || createdAgain || db2 != db {
		t.Fatalf("baseline not deduplicated: created=%v %q vs %q", createdAgain, db2, db)
	}
	dB, _, _ := s.PutBlob(ctx, fineB)

	for _, ck := range []store.Checkpoint{
		{Key: "sA", Cluster: 1, Base: db, Fine: dA, Labels: 10},
		{Key: "sB", Cluster: 1, Base: db, Fine: dB, Labels: 10},
	} {
		if err := s.PutCheckpoint(ctx, ck); err != nil {
			t.Fatal(err)
		}
	}
	ckA, _ := s.GetCheckpoint(ctx, "sA")
	ckB, _ := s.GetCheckpoint(ctx, "sB")
	if ckA.Base != ckB.Base {
		t.Fatalf("checkpoints from one baseline do not share a blob: %q vs %q", ckA.Base, ckB.Base)
	}
	for _, pair := range []struct {
		d    store.Digest
		want []byte
	}{{ckA.Base, base}, {ckA.Fine, fineA}, {ckB.Fine, fineB}} {
		got, err := s.GetBlob(ctx, pair.d)
		if err != nil || !bytes.Equal(got, pair.want) {
			t.Fatalf("blob %s not bitwise identical (err=%v)", pair.d, err)
		}
	}
	st := s.Stats()
	if st.BlobsPhysical != 3 || st.BlobsLogical != 4 {
		t.Fatalf("stats physical=%d logical=%d, want 3 physical / 4 logical", st.BlobsPhysical, st.BlobsLogical)
	}
	if st.DedupRatio <= 1 {
		t.Fatalf("dedup ratio %.2f, want > 1 with a shared baseline", st.DedupRatio)
	}
}

func testLeaseExclusion(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	l1, err := s.Lock(ctx, "ft:s000001", "replica-a", time.Minute)
	if err != nil {
		t.Fatalf("first Lock: %v", err)
	}
	if _, err := s.Lock(ctx, "ft:s000001", "replica-b", time.Minute); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second Lock err = %v, want ErrLocked", err)
	}
	// Unrelated key is independent.
	l2, err := s.Lock(ctx, "ft:s000002", "replica-b", time.Minute)
	if err != nil {
		t.Fatalf("unrelated Lock: %v", err)
	}
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// Released key is reacquirable.
	l3, err := s.Lock(ctx, "ft:s000001", "replica-b", time.Minute)
	if err != nil {
		t.Fatalf("re-Lock after release: %v", err)
	}
	l3.Release()
}

func testLeaseExpiryTakeover(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	l1, err := s.Lock(ctx, "ft:s1", "crashed-replica", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // lease expires, holder "crashed"
	l2, err := s.Lock(ctx, "ft:s1", "replica-b", time.Minute)
	if err != nil {
		t.Fatalf("takeover of expired lease: %v", err)
	}
	// The stale lease is dead: its Release must fail and must not free
	// the new holder's key.
	if err := l1.Release(); !errors.Is(err, store.ErrLeaseLost) {
		t.Fatalf("stale Release err = %v, want ErrLeaseLost", err)
	}
	if _, err := s.Lock(ctx, "ft:s1", "replica-c", time.Minute); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("Lock after stale Release err = %v, want ErrLocked", err)
	}
	// The live lease releases fine.
	if err := l2.Release(); err != nil {
		t.Fatalf("live Release: %v", err)
	}
}

// testLeaseContention is the issue's "lease contention under 8
// goroutines": run with -race, assert mutual exclusion via a counter
// that would race if two leases were ever live at once.
func testLeaseContention(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	const goroutines = 8
	const key = "ft:contended"
	var inCritical int32 // guarded only by the lease — the race detector audits it
	var acquired int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := fmt.Sprintf("replica-%d", g)
			for try := 0; try < 200; try++ {
				l, err := s.Lock(ctx, key, owner, time.Minute)
				if errors.Is(err, store.ErrLocked) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("Lock: %v", err)
					return
				}
				if n := inCritical; n != 0 {
					t.Errorf("lease granted while %d holders inside", n)
				}
				inCritical++
				time.Sleep(100 * time.Microsecond)
				inCritical--
				if err := l.Release(); err != nil {
					t.Errorf("Release: %v", err)
				}
				mu.Lock()
				acquired++
				mu.Unlock()
				return
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if acquired != goroutines {
		t.Fatalf("%d/%d goroutines ever acquired the lease", acquired, goroutines)
	}
}

// testHydrateAfterCrash writes sessions and a checkpoint through one
// handle, then reopens the same state via a second handle with no
// flush/close of the first — the crash model — and asserts everything
// reads back intact.
func testHydrateAfterCrash(t *testing.T, newStore Factory) {
	s, reopen := newStore(t)
	if reopen == nil {
		t.Skip("backend has no crash-durability to test")
	}
	ctx := ctxT(t)
	sess := randBytes(9, 3000)
	base := randBytes(10, 50000)
	fine := randBytes(11, 50000)
	if err := s.PutSession(ctx, "s000042", sess); err != nil {
		t.Fatal(err)
	}
	db, _, _ := s.PutBlob(ctx, base)
	df, _, _ := s.PutBlob(ctx, fine)
	if err := s.PutCheckpoint(ctx, store.Checkpoint{Key: "s000042", Cluster: 2, Base: db, Fine: df, Labels: 9}); err != nil {
		t.Fatal(err)
	}
	// "Crash": no Close, no flush. New handle, same state.
	s2 := reopen(t)
	got, err := s2.GetSession(ctx, "s000042")
	if err != nil || !bytes.Equal(got, sess) {
		t.Fatalf("session lost across crash: err=%v", err)
	}
	ck, err := s2.GetCheckpoint(ctx, "s000042")
	if err != nil || ck.Cluster != 2 || ck.Labels != 9 {
		t.Fatalf("checkpoint lost across crash: %+v err=%v", ck, err)
	}
	for _, pair := range []struct {
		d    store.Digest
		want []byte
	}{{ck.Base, base}, {ck.Fine, fine}} {
		b, err := s2.GetBlob(ctx, pair.d)
		if err != nil || !bytes.Equal(b, pair.want) {
			t.Fatalf("blob %s lost across crash: err=%v", pair.d, err)
		}
	}
}

func testStats(t *testing.T, newStore Factory) {
	s, _ := newStore(t)
	ctx := ctxT(t)
	st := s.Stats()
	if st.Sessions != 0 || st.BlobsPhysical != 0 || st.Checkpoints != 0 {
		t.Fatalf("fresh store stats not zero: %+v", st)
	}
	if st.Backend != s.Backend() {
		t.Fatalf("stats backend %q != %q", st.Backend, s.Backend())
	}
	s.PutSession(ctx, "a", randBytes(12, 100))
	s.PutSession(ctx, "b", randBytes(13, 100))
	d, _, _ := s.PutBlob(ctx, randBytes(14, 100))
	s.PutCheckpoint(ctx, store.Checkpoint{Key: "a", Base: d, Fine: d})
	l, err := s.Lock(ctx, "k", "o", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Sessions != 2 || st.BlobsPhysical != 1 || st.Checkpoints != 1 || st.LocksHeld != 1 {
		t.Fatalf("stats census wrong: %+v", st)
	}
	if st.BlobBytes != 100 {
		t.Fatalf("blob bytes %d, want 100", st.BlobBytes)
	}
	l.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetSession(ctx, "a"); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("op after Close err = %v, want ErrClosed", err)
	}
}
