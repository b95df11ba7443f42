package store

import (
	"context"
	"sync"
	"time"
)

// Mem is the in-memory backend: a single-process Store for tests and for
// running clear-serve without durability. All state lives in maps behind
// one mutex; data is copied on the way in and out so callers can't alias
// store internals.
type Mem struct {
	mu       sync.Mutex
	closed   bool
	sessions map[string][]byte
	fences   map[string]Fence
	blobs    map[Digest][]byte
	cks      map[string]Checkpoint
	locks    map[string]*memLock
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		sessions: map[string][]byte{},
		fences:   map[string]Fence{},
		blobs:    map[Digest][]byte{},
		cks:      map[string]Checkpoint{},
		locks:    map[string]*memLock{},
	}
}

// Backend implements Store.
func (m *Mem) Backend() string { return "mem" }

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// guard folds closed/cancelled checks into one place; callers hold no lock.
func (m *Mem) guard(ctx context.Context) error {
	if err := checkCtx(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return nil
}

// PutSession implements SessionStore.
func (m *Mem) PutSession(ctx context.Context, id string, data []byte) (err error) {
	start := time.Now()
	defer func() { instrument("mem", "put_session", start, err) }()
	if err = m.guard(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessions[id] = append([]byte(nil), data...)
	m.fences[id] = Fence{} // unfenced write resets the fence: it always wins
	return nil
}

// PutSessionFenced implements SessionStore.
func (m *Mem) PutSessionFenced(ctx context.Context, id string, f Fence, data []byte) (err error) {
	start := time.Now()
	defer func() { instrument("mem", "put_session_fenced", start, err) }()
	if err = m.guard(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok && f.Before(m.fences[id]) {
		return ErrFenced
	}
	m.sessions[id] = append([]byte(nil), data...)
	m.fences[id] = f
	return nil
}

// GetSession implements SessionStore.
func (m *Mem) GetSession(ctx context.Context, id string) (data []byte, err error) {
	start := time.Now()
	defer func() { instrument("mem", "get_session", start, err) }()
	if err = m.guard(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

// DeleteSession implements SessionStore.
func (m *Mem) DeleteSession(ctx context.Context, id string) (err error) {
	start := time.Now()
	defer func() { instrument("mem", "delete_session", start, err) }()
	if err = m.guard(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, id)
	delete(m.fences, id)
	return nil
}

// ListSessions implements SessionStore.
func (m *Mem) ListSessions(ctx context.Context) (ids []string, err error) {
	start := time.Now()
	defer func() { instrument("mem", "list_sessions", start, err) }()
	if err = m.guard(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ids = make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	return ids, nil
}

// PutBlob implements CheckpointStore.
func (m *Mem) PutBlob(ctx context.Context, data []byte) (d Digest, created bool, err error) {
	start := time.Now()
	defer func() { instrument("mem", "put_blob", start, err) }()
	if err = m.guard(ctx); err != nil {
		return "", false, err
	}
	d = DigestOf(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[d]; ok {
		return d, false, nil
	}
	m.blobs[d] = append([]byte(nil), data...)
	return d, true, nil
}

// GetBlob implements CheckpointStore.
func (m *Mem) GetBlob(ctx context.Context, d Digest) (data []byte, err error) {
	start := time.Now()
	defer func() { instrument("mem", "get_blob", start, err) }()
	if err = m.guard(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[d]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

// PutCheckpoint implements CheckpointStore.
func (m *Mem) PutCheckpoint(ctx context.Context, ck Checkpoint) (err error) {
	start := time.Now()
	defer func() { instrument("mem", "put_checkpoint", start, err) }()
	if err = m.guard(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range []Digest{ck.Base, ck.Fine} {
		if _, ok := m.blobs[d]; !ok {
			return ErrNotFound
		}
	}
	m.cks[ck.Key] = ck
	return nil
}

// GetCheckpoint implements CheckpointStore.
func (m *Mem) GetCheckpoint(ctx context.Context, key string) (ck Checkpoint, err error) {
	start := time.Now()
	defer func() { instrument("mem", "get_checkpoint", start, err) }()
	if err = m.guard(ctx); err != nil {
		return Checkpoint{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ck, ok := m.cks[key]
	if !ok {
		return Checkpoint{}, ErrNotFound
	}
	return ck, nil
}

// DeleteCheckpoint implements CheckpointStore.
func (m *Mem) DeleteCheckpoint(ctx context.Context, key string) (err error) {
	start := time.Now()
	defer func() { instrument("mem", "delete_checkpoint", start, err) }()
	if err = m.guard(ctx); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cks, key)
	return nil
}

// memLock is the shared lock record; the Lease handed out points at it
// and checks generation so a takeover invalidates stale leases.
type memLock struct {
	owner    string
	gen      int64
	deadline time.Time
}

// memLease implements Lease over a Mem store.
type memLease struct {
	m   *Mem
	key string
	gen int64
}

// Lock implements LockSource.
func (m *Mem) Lock(ctx context.Context, key, owner string, ttl time.Duration) (ls Lease, err error) {
	start := time.Now()
	defer func() { instrument("mem", "lock", start, err) }()
	if err = m.guard(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	if cur, ok := m.locks[key]; ok && now.Before(cur.deadline) {
		return nil, ErrLocked
	}
	var gen int64
	if cur, ok := m.locks[key]; ok {
		gen = cur.gen + 1 // takeover of an expired lease bumps generation
	}
	m.locks[key] = &memLock{owner: owner, gen: gen, deadline: now.Add(ttl)}
	return &memLease{m: m, key: key, gen: gen}, nil
}

// Release implements Lease.
func (l *memLease) Release() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	cur, ok := l.m.locks[l.key]
	if !ok || cur.gen != l.gen {
		return ErrLeaseLost
	}
	delete(l.m.locks, l.key)
	return nil
}

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bytes int64
	for _, b := range m.blobs {
		bytes += int64(len(b))
	}
	logical := 2 * len(m.cks) // each manifest references base + fine
	held := 0
	now := time.Now()
	for _, lk := range m.locks {
		if now.Before(lk.deadline) {
			held++
		}
	}
	return Stats{
		Backend:       "mem",
		Sessions:      len(m.sessions),
		Checkpoints:   len(m.cks),
		BlobsPhysical: len(m.blobs),
		BlobsLogical:  logical,
		BlobBytes:     bytes,
		DedupRatio:    dedupRatio(logical, len(m.blobs)),
		LocksHeld:     held,
	}
}
