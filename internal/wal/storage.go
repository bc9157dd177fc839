package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Storage persists log segments. It outlives any single Log instance: a new
// Log opened on the same Storage sees the segments its predecessors wrote,
// which is what makes recovery after a restart (or a simulated crash)
// possible.
type Storage interface {
	// Sub returns a namespaced child storage (one per container).
	Sub(name string) Storage
	// List returns the indexes of existing segments in ascending order.
	List() ([]uint64, error)
	// ReadSegment returns the full durable contents of a segment.
	ReadSegment(index uint64) ([]byte, error)
	// SyncSegment fsyncs an existing segment that is not currently open for
	// writing. Open uses it to make a predecessor's tail durable before
	// treating recovered records as such.
	SyncSegment(index uint64) error
	// Create creates the segment with the given index and returns its writer.
	Create(index uint64) (SegmentFile, error)
	// DeleteSegment durably removes a sealed segment. Log truncation calls it
	// for segments wholly below a checkpoint's low-water mark; it must never
	// be called on the segment currently open for writing.
	DeleteSegment(index uint64) error
	// ReplaceSegment durably replaces a sealed segment's contents with data,
	// atomically: a crash at any point leaves either the old contents or the
	// new ones, never a torn mix and never no segment at all. Suffix
	// truncation (TruncateAbove) cuts its boundary segment with it; it must
	// never be called on the segment currently open for writing.
	ReplaceSegment(index uint64, data []byte) error
	// ListCheckpoints returns the sequence numbers of stored checkpoint blobs
	// in ascending order. Checkpoints are sidecar files next to the segments;
	// they share the storage's lifetime and crash semantics.
	ListCheckpoints() ([]uint64, error)
	// ReadCheckpoint returns the durable contents of the checkpoint blob with
	// the given sequence number (DecodeCheckpoint's CRC catches a corrupt
	// one).
	ReadCheckpoint(seq uint64) ([]byte, error)
	// WriteCheckpoint durably stores a checkpoint blob under seq, overwriting
	// any previous blob with the same sequence number. On return the bytes
	// must survive a machine crash. The overwrite is atomic: a crash part-way
	// leaves the previous blob (or none, if there was none), never a torn one.
	WriteCheckpoint(seq uint64, data []byte) error
	// DeleteCheckpoint durably removes the checkpoint blob with the given
	// sequence number.
	DeleteCheckpoint(seq uint64) error
}

// SegmentFile is the writable handle of one open segment.
type SegmentFile interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	Close() error
}

// --- In-memory storage --------------------------------------------------------

// MemStorage keeps segments in process memory with honest durability
// semantics: bytes become "durable" only when Sync succeeds, and CrashCopy
// discards everything after the last successful sync — exactly what a machine
// crash does to an OS page cache. Tests use the fault hooks to gate or fail
// fsyncs and to snapshot a post-crash view while the original database is
// still wedged mid-flush.
type MemStorage struct {
	root   *memRoot
	prefix string
}

type memRoot struct {
	mu   sync.Mutex
	segs map[string]*memSegment

	// fault injection, shared by all Sub-storages
	syncGate chan struct{} // non-nil: Sync blocks until the channel is closed
	syncErr  error         // non-nil: Sync fails without marking bytes durable
	writeErr error         // non-nil: Write fails after a partial append
	writeOne bool          // writeErr clears after one failed Write
	syncs    atomic.Int64  // Sync attempts started (including gated/failed)
}

type memSegment struct {
	buf    []byte
	synced int // prefix of buf that survived the last successful Sync
}

// NewMemStorage returns an empty in-memory storage.
func NewMemStorage() *MemStorage {
	return &MemStorage{root: &memRoot{segs: make(map[string]*memSegment)}}
}

func (m *MemStorage) key(index uint64) string {
	return fmt.Sprintf("%s/%016d", m.prefix, index)
}

// ckptKey namespaces checkpoint blobs away from segment keys: the "ckpt/"
// component never parses as a segment index, so List and ListCheckpoints
// cannot confuse the two.
func (m *MemStorage) ckptKey(seq uint64) string {
	return fmt.Sprintf("%s/ckpt/%016d", m.prefix, seq)
}

// Sub implements Storage.
func (m *MemStorage) Sub(name string) Storage {
	return &MemStorage{root: m.root, prefix: m.prefix + "/" + name}
}

// List implements Storage.
func (m *MemStorage) List() ([]uint64, error) {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	var out []uint64
	for k := range m.root.segs {
		var idx uint64
		if n, err := fmt.Sscanf(k, m.prefix+"/%016d", &idx); n == 1 && err == nil {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadSegment implements Storage. It returns everything written, durable or
// not: that is what a clean reopen of a real file would see. Crash semantics
// come from CrashCopy, which drops the unsynced suffix first.
func (m *MemStorage) ReadSegment(index uint64) ([]byte, error) {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	seg, ok := m.root.segs[m.key(index)]
	if !ok {
		return nil, fmt.Errorf("wal: no such segment %d", index)
	}
	return append([]byte(nil), seg.buf...), nil
}

// SyncSegment implements Storage: everything written so far becomes durable,
// matching what fsyncing a real file adopted from the page cache would do.
func (m *MemStorage) SyncSegment(index uint64) error {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	seg, ok := m.root.segs[m.key(index)]
	if !ok {
		return fmt.Errorf("wal: no such segment %d", index)
	}
	if err := m.root.syncErr; err != nil {
		return err
	}
	seg.synced = len(seg.buf)
	return nil
}

// Create implements Storage.
func (m *MemStorage) Create(index uint64) (SegmentFile, error) {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	k := m.key(index)
	if _, dup := m.root.segs[k]; dup {
		return nil, fmt.Errorf("wal: segment %d already exists", index)
	}
	seg := &memSegment{}
	m.root.segs[k] = seg
	return &memSegmentFile{root: m.root, seg: seg}, nil
}

// DeleteSegment implements Storage.
func (m *MemStorage) DeleteSegment(index uint64) error {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	k := m.key(index)
	if _, ok := m.root.segs[k]; !ok {
		return fmt.Errorf("wal: no such segment %d", index)
	}
	delete(m.root.segs, k)
	return nil
}

// ReplaceSegment implements Storage: the new contents are durable in one
// step, and a failing sync leaves the old ones in place.
func (m *MemStorage) ReplaceSegment(index uint64, data []byte) error {
	return m.replace(m.key(index), data)
}

// replace swaps in a durable copy of data under k unless syncs are failing —
// the all-or-nothing overwrite that FileStorage.replaceFile gives real files.
func (m *MemStorage) replace(k string, data []byte) error {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	if err := m.root.syncErr; err != nil {
		return err
	}
	buf := append([]byte(nil), data...)
	m.root.segs[k] = &memSegment{buf: buf, synced: len(buf)}
	return nil
}

// ListCheckpoints implements Storage.
func (m *MemStorage) ListCheckpoints() ([]uint64, error) {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	var out []uint64
	for k := range m.root.segs {
		var seq uint64
		if n, err := fmt.Sscanf(k, m.prefix+"/ckpt/%016d", &seq); n == 1 && err == nil {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadCheckpoint implements Storage. Like ReadSegment it returns everything
// written.
func (m *MemStorage) ReadCheckpoint(seq uint64) ([]byte, error) {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	blob, ok := m.root.segs[m.ckptKey(seq)]
	if !ok {
		return nil, fmt.Errorf("wal: no such checkpoint %d", seq)
	}
	return append([]byte(nil), blob.buf...), nil
}

// WriteCheckpoint implements Storage: the blob is written and fsynced in one
// step, and a failed sync fails the write without touching the previous
// blob. Checkpoint blobs live in the same keyspace as segments so CrashCopy
// keeps them too.
func (m *MemStorage) WriteCheckpoint(seq uint64, data []byte) error {
	return m.replace(m.ckptKey(seq), data)
}

// DeleteCheckpoint implements Storage.
func (m *MemStorage) DeleteCheckpoint(seq uint64) error {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	k := m.ckptKey(seq)
	if _, ok := m.root.segs[k]; !ok {
		return fmt.Errorf("wal: no such checkpoint %d", seq)
	}
	delete(m.root.segs, k)
	return nil
}

// GateSyncs installs a gate channel: every subsequent Sync (on any segment of
// this storage tree) blocks until the channel is closed. It simulates a
// committer stuck mid-fsync so a test can crash the system mid-batch.
func (m *MemStorage) GateSyncs(gate chan struct{}) {
	m.root.mu.Lock()
	m.root.syncGate = gate
	m.root.mu.Unlock()
}

// FailSyncs makes every subsequent Sync fail with err (nil restores normal
// operation). Failed syncs leave their bytes non-durable.
func (m *MemStorage) FailSyncs(err error) {
	m.root.mu.Lock()
	m.root.syncErr = err
	m.root.mu.Unlock()
}

// FailWrites makes every subsequent segment Write fail with err after
// appending only half of its bytes — the torn-frame shape a full disk
// leaves behind. nil restores normal operation.
func (m *MemStorage) FailWrites(err error) {
	m.root.mu.Lock()
	m.root.writeErr = err
	m.root.writeOne = false
	m.root.mu.Unlock()
}

// FailNextWrite fails exactly one subsequent segment Write (half-appended,
// like FailWrites), then restores normal operation — a transient write
// failure the log can salvage by retracting on a fresh segment.
func (m *MemStorage) FailNextWrite(err error) {
	m.root.mu.Lock()
	m.root.writeErr = err
	m.root.writeOne = true
	m.root.mu.Unlock()
}

// SyncsStarted returns the number of Sync attempts begun, including gated and
// failed ones; tests use it to detect a committer wedged in fsync.
func (m *MemStorage) SyncsStarted() int64 { return m.root.syncs.Load() }

// CrashCopy returns a new independent MemStorage holding only the durable
// (synced) prefix of every segment — the storage state a machine crash would
// leave behind. The original storage is not modified, so a database still
// wedged on it can be released and shut down afterwards.
func (m *MemStorage) CrashCopy() *MemStorage {
	m.root.mu.Lock()
	defer m.root.mu.Unlock()
	root := &memRoot{segs: make(map[string]*memSegment, len(m.root.segs))}
	for k, seg := range m.root.segs {
		root.segs[k] = &memSegment{
			buf:    append([]byte(nil), seg.buf[:seg.synced]...),
			synced: seg.synced,
		}
	}
	return &MemStorage{root: root, prefix: m.prefix}
}

type memSegmentFile struct {
	root *memRoot
	seg  *memSegment
}

func (f *memSegmentFile) Write(p []byte) (int, error) {
	f.root.mu.Lock()
	defer f.root.mu.Unlock()
	if err := f.root.writeErr; err != nil {
		if f.root.writeOne {
			f.root.writeErr = nil
			f.root.writeOne = false
		}
		n := len(p) / 2
		f.seg.buf = append(f.seg.buf, p[:n]...)
		return n, err
	}
	f.seg.buf = append(f.seg.buf, p...)
	return len(p), nil
}

func (f *memSegmentFile) Sync() error {
	f.root.syncs.Add(1)
	f.root.mu.Lock()
	gate := f.root.syncGate
	f.root.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f.root.mu.Lock()
	defer f.root.mu.Unlock()
	if err := f.root.syncErr; err != nil {
		return err
	}
	f.seg.synced = len(f.seg.buf)
	return nil
}

func (f *memSegmentFile) Close() error { return nil }

// --- File-backed storage ------------------------------------------------------

// FileStorage stores each segment as one file (%016d.wal) under a directory,
// with real fsyncs. Directories are created lazily on first write.
type FileStorage struct {
	dir string
}

// NewFileStorage returns a file-backed storage rooted at dir. No IO happens
// until a segment is created or listed.
func NewFileStorage(dir string) *FileStorage { return &FileStorage{dir: dir} }

func (s *FileStorage) segPath(index uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016d.wal", index))
}

// Sub implements Storage.
func (s *FileStorage) Sub(name string) Storage {
	return &FileStorage{dir: filepath.Join(s.dir, name)}
}

// List implements Storage.
func (s *FileStorage) List() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		var idx uint64
		if n, scanErr := fmt.Sscanf(e.Name(), "%016d.wal", &idx); n == 1 && scanErr == nil {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadSegment implements Storage.
func (s *FileStorage) ReadSegment(index uint64) ([]byte, error) {
	return os.ReadFile(s.segPath(index))
}

// SyncSegment implements Storage.
func (s *FileStorage) SyncSegment(index uint64) error {
	f, err := os.OpenFile(s.segPath(index), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Create implements Storage. The parent directory is fsynced after the
// segment file is created so the directory entry — and with it every commit
// the segment will hold — survives a crash, not just the file's own data.
func (s *FileStorage) Create(index uint64) (SegmentFile, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.segPath(index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// DeleteSegment implements Storage. The directory is fsynced afterwards so
// the removal — and with it the truncation's space reclamation — is durable.
func (s *FileStorage) DeleteSegment(index uint64) error {
	if err := os.Remove(s.segPath(index)); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// ReplaceSegment implements Storage.
func (s *FileStorage) ReplaceSegment(index uint64, data []byte) error {
	return s.replaceFile(s.segPath(index), data)
}

// replaceFile durably and atomically replaces the file at path with data:
// write a temporary sibling, fsync it, rename it over path, fsync the
// directory. A crash before the rename leaves the old file, after it the new
// one; only a stray temporary file can remain, and the next replace of the
// same path truncates it. The temporary name starts with a dot, so it never
// parses as a segment or a checkpoint.
func (s *FileStorage) replaceFile(path string, data []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(s.dir)
}

func (s *FileStorage) ckptPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016d.ckpt", seq))
}

// ListCheckpoints implements Storage.
func (s *FileStorage) ListCheckpoints() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		var seq uint64
		if n, scanErr := fmt.Sscanf(e.Name(), "%016d.ckpt", &seq); n == 1 && scanErr == nil {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadCheckpoint implements Storage.
func (s *FileStorage) ReadCheckpoint(seq uint64) ([]byte, error) {
	return os.ReadFile(s.ckptPath(seq))
}

// WriteCheckpoint implements Storage through replaceFile: a crash mid-write
// leaves the previous blob under seq, or none.
func (s *FileStorage) WriteCheckpoint(seq uint64, data []byte) error {
	return s.replaceFile(s.ckptPath(seq), data)
}

// DeleteCheckpoint implements Storage.
func (s *FileStorage) DeleteCheckpoint(seq uint64) error {
	if err := os.Remove(s.ckptPath(seq)); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so freshly created entries are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
