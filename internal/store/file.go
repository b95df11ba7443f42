package store

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// File is the durable backend: a directory shared by every replica on
// the host (or a shared mount). Layout under the root:
//
//	sessions/<esc(id)>.sess    framed session record (recordMagic)
//	blobs/<hex>                raw blob bytes, named by sha256
//	checkpoints/<esc(key)>.ck  framed manifest (manifestMagic)
//	locks/<esc(key)>.lock      JSON lease record, hard-linked into place
//
// Records reuse the repo-wide core.WriteHeader framing (LE magic +
// uint32 len + JSON header) with the payload after the header, so a
// session file is self-describing and integrity-checked the same way the
// pipeline checkpoints are. Writes go through tmp+rename in the same
// directory, so readers never observe a torn record; blob writes are
// idempotent because the name IS the content hash.
type File struct {
	root   string
	mu     sync.Mutex
	closed bool
	// fenceMu serializes fenced writes to one session id so the
	// read-compare-write in PutSessionFenced is atomic within this
	// process. It is striped by id hash (fenceLock): puts to different
	// ids take different mutexes, so no persist waits on another
	// session's fsync. Replicas on one host share the directory but open
	// separate File handles; the cross-process fence race window (two
	// rename-based writers passing the compare simultaneously) collapses
	// to last-wins, which matches the pre-fencing behavior and is closed
	// for the deployment CI exercises because only one replica owns a
	// session per epoch.
	fenceMu [64]sync.Mutex
	// leaseMu serializes Lock and Release on this handle. The
	// filesystem arbitrates between processes; within one, the mutex makes
	// a release happen-before the next holder's acquire, which link and
	// unlink alone do not establish in the Go memory model.
	leaseMu sync.Mutex
}

const (
	// recordMagic frames session records: "SREC".
	recordMagic uint32 = 0x53524543
	// manifestMagic frames checkpoint manifests: "SMAN".
	manifestMagic uint32 = 0x534D414E
)

// recordHeader describes the payload that follows a framed record.
type recordHeader struct {
	ID     string `json:"id"`
	Len    int    `json:"len"`
	Sum    Digest `json:"sum"`
	Stored int64  `json:"stored_unix_us"`
	// Epoch/Seq carry the write fence (see store.Fence). Absent on
	// records written before fencing existed and on unfenced puts —
	// both decode as the zero fence, which any fenced write dominates.
	Epoch uint64 `json:"epoch,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// NewFile opens (creating if needed) a file store rooted at dir.
func NewFile(dir string) (*File, error) {
	for _, sub := range []string{"sessions", "blobs", "checkpoints", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: init %s: %w", sub, err)
		}
	}
	return &File{root: dir}, nil
}

// Backend implements Store.
func (f *File) Backend() string { return "file" }

// Close implements Store.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *File) guard(ctx context.Context) error {
	if err := checkCtx(ctx); err != nil {
		return err
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return nil
}

// esc makes an arbitrary key filesystem-safe and reversible.
func esc(key string) string { return url.QueryEscape(key) }

func unesc(name string) (string, error) { return url.QueryUnescape(name) }

func (f *File) sessPath(id string) string {
	return filepath.Join(f.root, "sessions", esc(id)+".sess")
}

func (f *File) blobPath(d Digest) string {
	return filepath.Join(f.root, "blobs", d.Hex())
}

func (f *File) ckPath(key string) string {
	return filepath.Join(f.root, "checkpoints", esc(key)+".ck")
}

func (f *File) lockPath(key string) string {
	return filepath.Join(f.root, "locks", esc(key)+".lock")
}

// writeAtomic writes data to path via a same-directory tmp file and
// rename, so concurrent readers see either the old record or the new one.
func writeAtomic(path string, write func(*os.File) error) error {
	return placeTemp(path, write, os.Rename)
}

// placeTemp writes and syncs a same-directory tmp file, then moves it to
// path with place: os.Rename replaces, os.Link creates only if path is
// absent (EEXIST otherwise). Either way path is never visible partly
// written, and the tmp name is removed on every path.
func placeTemp(path string, write func(*os.File) error, place func(oldpath, newpath string) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a rename; drops a link's second name
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return place(tmp.Name(), path)
}

// writeBytes is the write callback that writes b.
func writeBytes(b []byte) func(*os.File) error {
	return func(w *os.File) error {
		_, err := w.Write(b)
		return err
	}
}

// PutSession implements SessionStore.
func (f *File) PutSession(ctx context.Context, id string, data []byte) (err error) {
	start := time.Now()
	defer func() { instrument("file", "put_session", start, err) }()
	if err = f.guard(ctx); err != nil {
		return err
	}
	return f.putSessionRecord(id, Fence{}, data)
}

// PutSessionFenced implements SessionStore: read the stored record's
// fence, reject if it is strictly newer, then write. id's fenceMu stripe
// makes the compare-and-write atomic against other fenced writers of id
// in this process.
func (f *File) PutSessionFenced(ctx context.Context, id string, fc Fence, data []byte) (err error) {
	start := time.Now()
	defer func() { instrument("file", "put_session_fenced", start, err) }()
	if err = f.guard(ctx); err != nil {
		return err
	}
	mu := f.fenceLock(id)
	mu.Lock()
	defer mu.Unlock()
	stored, err := f.readFence(id)
	if err != nil {
		return err
	}
	if fc.Before(stored) {
		return ErrFenced
	}
	return f.putSessionRecord(id, fc, data)
}

// fenceLock returns id's fenceMu stripe, picked by FNV-1a hash.
func (f *File) fenceLock(id string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &f.fenceMu[h%uint32(len(f.fenceMu))]
}

// readFence returns the fence on id's stored record; a missing or
// corrupt record reads as the zero fence (corrupt records must be
// overwritable, not wedged forever behind an unreadable fence).
func (f *File) readFence(id string) (Fence, error) {
	r, err := os.Open(f.sessPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return Fence{}, nil
	}
	if err != nil {
		return Fence{}, err
	}
	defer r.Close()
	var hdr recordHeader
	if err := core.ReadHeader(r, recordMagic, &hdr); err != nil {
		return Fence{}, nil
	}
	return Fence{Epoch: hdr.Epoch, Seq: hdr.Seq}, nil
}

func (f *File) putSessionRecord(id string, fc Fence, data []byte) error {
	hdr := recordHeader{
		ID: id, Len: len(data), Sum: DigestOf(data),
		Stored: time.Now().UnixMicro(), Epoch: fc.Epoch, Seq: fc.Seq,
	}
	return writeAtomic(f.sessPath(id), func(w *os.File) error {
		if err := core.WriteHeader(w, recordMagic, hdr); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	})
}

// GetSession implements SessionStore.
func (f *File) GetSession(ctx context.Context, id string) (data []byte, err error) {
	start := time.Now()
	defer func() { instrument("file", "get_session", start, err) }()
	if err = f.guard(ctx); err != nil {
		return nil, err
	}
	r, err := os.Open(f.sessPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var hdr recordHeader
	if err := core.ReadHeader(r, recordMagic, &hdr); err != nil {
		return nil, fmt.Errorf("%w: session %s: %v", ErrCorrupt, id, err)
	}
	data = make([]byte, hdr.Len)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("%w: session %s payload: %v", ErrCorrupt, id, err)
	}
	if DigestOf(data) != hdr.Sum {
		return nil, fmt.Errorf("%w: session %s digest mismatch", ErrCorrupt, id)
	}
	return data, nil
}

// DeleteSession implements SessionStore.
func (f *File) DeleteSession(ctx context.Context, id string) (err error) {
	start := time.Now()
	defer func() { instrument("file", "delete_session", start, err) }()
	if err = f.guard(ctx); err != nil {
		return err
	}
	if err := os.Remove(f.sessPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// ListSessions implements SessionStore.
func (f *File) ListSessions(ctx context.Context) (ids []string, err error) {
	start := time.Now()
	defer func() { instrument("file", "list_sessions", start, err) }()
	if err = f.guard(ctx); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(f.root, "sessions"))
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".sess")
		if !ok || e.IsDir() {
			continue // tmp files mid-rename, strays
		}
		id, err := unesc(name)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// PutBlob implements CheckpointStore. Content addressing makes this
// naturally idempotent: if the name already exists the bytes are already
// right, so concurrent writers of the same blob can't conflict.
func (f *File) PutBlob(ctx context.Context, data []byte) (d Digest, created bool, err error) {
	start := time.Now()
	defer func() { instrument("file", "put_blob", start, err) }()
	if err = f.guard(ctx); err != nil {
		return "", false, err
	}
	d = DigestOf(data)
	path := f.blobPath(d)
	if _, err := os.Stat(path); err == nil {
		return d, false, nil
	}
	if err = writeAtomic(path, writeBytes(data)); err != nil {
		return "", false, err
	}
	return d, true, nil
}

// GetBlob implements CheckpointStore.
func (f *File) GetBlob(ctx context.Context, d Digest) (data []byte, err error) {
	start := time.Now()
	defer func() { instrument("file", "get_blob", start, err) }()
	if err = f.guard(ctx); err != nil {
		return nil, err
	}
	if !d.Valid() {
		return nil, fmt.Errorf("%w: bad digest %q", ErrCorrupt, d)
	}
	data, err = os.ReadFile(f.blobPath(d))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if DigestOf(data) != d {
		return nil, fmt.Errorf("%w: blob %s digest mismatch", ErrCorrupt, d)
	}
	return data, nil
}

// hasBlob reports whether the blob at d exists without reading it.
func (f *File) hasBlob(d Digest) (bool, error) {
	_, err := os.Stat(f.blobPath(d))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// PutCheckpoint implements CheckpointStore.
func (f *File) PutCheckpoint(ctx context.Context, ck Checkpoint) (err error) {
	start := time.Now()
	defer func() { instrument("file", "put_checkpoint", start, err) }()
	if err = f.guard(ctx); err != nil {
		return err
	}
	for _, d := range []Digest{ck.Base, ck.Fine} {
		ok, herr := f.hasBlob(d)
		if herr != nil {
			return herr
		}
		if !ok {
			return ErrNotFound
		}
	}
	return writeAtomic(f.ckPath(ck.Key), func(w *os.File) error {
		return core.WriteHeader(w, manifestMagic, ck)
	})
}

// GetCheckpoint implements CheckpointStore.
func (f *File) GetCheckpoint(ctx context.Context, key string) (ck Checkpoint, err error) {
	start := time.Now()
	defer func() { instrument("file", "get_checkpoint", start, err) }()
	if err = f.guard(ctx); err != nil {
		return Checkpoint{}, err
	}
	r, err := os.Open(f.ckPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return Checkpoint{}, ErrNotFound
	}
	if err != nil {
		return Checkpoint{}, err
	}
	defer r.Close()
	if err := core.ReadHeader(r, manifestMagic, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint %s: %v", ErrCorrupt, key, err)
	}
	return ck, nil
}

// DeleteCheckpoint implements CheckpointStore.
func (f *File) DeleteCheckpoint(ctx context.Context, key string) (err error) {
	start := time.Now()
	defer func() { instrument("file", "delete_checkpoint", start, err) }()
	if err = f.guard(ctx); err != nil {
		return err
	}
	if err := os.Remove(f.ckPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// lockRecord is the JSON body of a lock file.
type lockRecord struct {
	Owner    string `json:"owner"`
	Token    string `json:"token"` // random nonce distinguishing holders with equal owner strings
	Deadline int64  `json:"deadline_unix_us"`
}

func (lr lockRecord) expired(now time.Time) bool {
	return now.UnixMicro() >= lr.Deadline
}

// fileLease implements Lease over a lock file.
type fileLease struct {
	f     *File
	key   string
	token string
}

func newToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is process-fatal territory; fall back to a
		// time-derived token rather than panicking in a lease path.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Lock implements LockSource. Fresh acquisition writes the lease record
// to a tmp file in locks/ and hard-links it to the lock path: the link
// fails atomically with EEXIST while the key is held, so the filesystem
// arbitrates racing replicas and the lock file is never visible empty.
// On the contended path a lock file that reads empty or short (written
// by a non-atomic writer, or torn by a crash) counts as contention
// (ErrLocked), not ErrCorrupt. Takeover of an expired lease is
// write-then-verify: write our record via rename, read it back, and only
// claim the lease if our token survived (two racing takeovers both
// rename, but only the last one's token is on disk).
func (f *File) Lock(ctx context.Context, key, owner string, ttl time.Duration) (ls Lease, err error) {
	start := time.Now()
	defer func() { instrument("file", "lock", start, err) }()
	if err = f.guard(ctx); err != nil {
		return nil, err
	}
	path := f.lockPath(key)
	rec := lockRecord{Owner: owner, Token: newToken(), Deadline: time.Now().Add(ttl).UnixMicro()}
	body, _ := json.Marshal(rec)
	f.leaseMu.Lock()
	defer f.leaseMu.Unlock()

	err = placeTemp(path, writeBytes(body), os.Link)
	if err == nil {
		return &fileLease{f: f, key: key, token: rec.Token}, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, err
	}

	cur, rerr := readLock(path)
	switch {
	case errors.Is(rerr, fs.ErrNotExist):
		return nil, ErrLocked // holder released between our attempts; let caller retry
	case errors.Is(rerr, io.EOF), errors.Is(rerr, io.ErrUnexpectedEOF):
		return nil, ErrLocked // empty or short record: contention, not corruption
	case rerr != nil:
		return nil, rerr
	case !cur.expired(time.Now()):
		return nil, ErrLocked
	}
	// Expired: take over, then verify our token won any takeover race.
	if err = writeAtomic(path, writeBytes(body)); err != nil {
		return nil, err
	}
	got, rerr := readLock(path)
	if rerr != nil || got.Token != rec.Token {
		return nil, ErrLocked
	}
	return &fileLease{f: f, key: key, token: rec.Token}, nil
}

// readLock decodes a lock file. A record that is not valid JSON is
// ErrCorrupt, wrapping io.EOF when the file is empty and
// io.ErrUnexpectedEOF when it is cut short.
func readLock(path string) (lockRecord, error) {
	r, err := os.Open(path)
	if err != nil {
		return lockRecord{}, err
	}
	defer r.Close()
	var rec lockRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return lockRecord{}, fmt.Errorf("%w: lock %s: %w", ErrCorrupt, path, err)
	}
	return rec, nil
}

// Release implements Lease.
func (l *fileLease) Release() error {
	l.f.leaseMu.Lock()
	defer l.f.leaseMu.Unlock()
	path := l.f.lockPath(l.key)
	cur, err := readLock(path)
	if err != nil || cur.Token != l.token {
		return ErrLeaseLost
	}
	return os.Remove(path)
}

// Stats implements Store. Counts come from directory walks — O(entries),
// fine at the session counts a single host serves, and only hit on the
// /v1/stats path.
func (f *File) Stats() Stats {
	st := Stats{Backend: "file"}
	if ents, err := os.ReadDir(filepath.Join(f.root, "sessions")); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".sess") {
				st.Sessions++
			}
		}
	}
	if ents, err := os.ReadDir(filepath.Join(f.root, "blobs")); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			st.BlobsPhysical++
			if fi, err := e.Info(); err == nil {
				st.BlobBytes += fi.Size()
			}
		}
	}
	if ents, err := os.ReadDir(filepath.Join(f.root, "checkpoints")); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".ck") {
				st.Checkpoints++
			}
		}
	}
	st.BlobsLogical = 2 * st.Checkpoints
	st.DedupRatio = dedupRatio(st.BlobsLogical, st.BlobsPhysical)
	now := time.Now()
	if ents, err := os.ReadDir(filepath.Join(f.root, "locks")); err == nil {
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".lock") {
				continue // tmp files mid-link or mid-rename
			}
			rec, err := readLock(filepath.Join(f.root, "locks", e.Name()))
			if err == nil && !rec.expired(now) {
				st.LocksHeld++
			}
		}
	}
	return st
}
