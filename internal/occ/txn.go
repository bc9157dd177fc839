package occ

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"reactdb/internal/kv"
)

// Errors returned by the commit protocol and write primitives.
var (
	// ErrConflict indicates validation failure: a record or scanned table
	// changed between the transaction's read and its commit attempt.
	ErrConflict = errors.New("occ: serialization conflict")
	// ErrDuplicateKey indicates an insert of a primary key that is already
	// present.
	ErrDuplicateKey = errors.New("occ: duplicate primary key")
	// ErrTxnClosed indicates use of a transaction that already committed or
	// aborted.
	ErrTxnClosed = errors.New("occ: transaction is no longer active")
)

// ScanGuard is the phantom-protection hook implemented by rel.Table: a
// structural version that committed inserts and deletes bump, plus a latch the
// commit protocol holds while bumping so concurrent validators cannot miss the
// change.
type ScanGuard interface {
	Version() uint64
	BumpVersion()
	LockStructure()
	TryLockStructure() bool
	UnlockStructure()
}

// IndexMaintainer extends ScanGuard for tables that keep secondary indexes
// (rel.Table). The commit install phase calls ApplyIndexWrite for every write
// whose guard implements it, passing the record state captured before the
// install, so index entries always mirror the committed row contents. The
// return value reports whether any index entry changed; the caller treats a
// true result as a structural change and bumps the guard's version, because
// a row moving between index ranges is a phantom for concurrent index scans
// even when its primary key is unchanged.
type IndexMaintainer interface {
	ScanGuard
	ApplyIndexWrite(oldData []byte, oldPresent bool, newData []byte, deleted bool) bool
}

type txnState uint8

const (
	stateActive txnState = iota
	statePrepared
	stateCommitted
	stateAborted
)

type writeKind uint8

const (
	writeUpdate writeKind = iota
	writeInsert
	writeDelete
)

// smallSetThreshold is the read/write-set size up to which membership lookups
// use a linear scan over the entry slice instead of a map. OLTP transactions
// rarely exceed it, so the hot path never touches (or allocates) the maps;
// larger transactions spill to a map that is retained and cleared across
// pooled reuses.
const smallSetThreshold = 16

type readEntry struct {
	rec *kv.Record
	tid uint64
}

type writeEntry struct {
	rec   *kv.Record
	key   []byte // arena-backed; valid until the txn is released
	data  []byte
	kind  writeKind
	guard ScanGuard
}

type scanEntry struct {
	guard   ScanGuard
	version uint64
}

// Txn is a Silo-style optimistic transaction against a single Domain. It
// buffers writes locally and validates reads at commit. Methods are safe for
// use by multiple goroutines of the same root transaction (sub-transactions on
// different reactors hosted in the same container), serialized by an internal
// mutex.
//
// Transactions are pooled: Domain.Begin draws from a free list and Release
// returns a finished transaction to it, so the entry slices, key arena and
// spill maps are reused across transactions instead of reallocated.
type Txn struct {
	domain *Domain

	mu     sync.Mutex
	state  txnState
	reads  []readEntry
	writes []writeEntry
	scans  []scanEntry
	maxTID uint64
	tid    uint64 // commit TID, set by CommitPrepared

	// readIdx/writeIdx are spill indices, populated only once the respective
	// set exceeds smallSetThreshold (readSpilled/writeSpilled). The maps are
	// kept (and cleared) across pooled reuses so their buckets amortize.
	readIdx     map[*kv.Record]int
	writeIdx    map[*kv.Record]int
	readSpilled bool
	writeSpill  bool

	// keyArena backs the key bytes of all buffered writes. Growing the arena
	// may reallocate its backing array, but previously handed-out sub-slices
	// keep referencing the old backing, so they stay valid.
	keyArena []byte

	// prepare bookkeeping, reused across pooled transactions
	lockedRecs   []*kv.Record
	lockedGuards []ScanGuard
}

// recPtr orders records by identity for deadlock-free lock ordering.
func recPtr(r *kv.Record) uintptr { return uintptr(unsafe.Pointer(r)) }

// guardPtr orders guards by the identity of their underlying object.
func guardPtr(g ScanGuard) uintptr {
	return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&g))[1])
}

// Domain returns the concurrency control domain this transaction runs in.
func (t *Txn) Domain() *Domain { return t.domain }

// Active reports whether the transaction can still issue operations.
func (t *Txn) Active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == stateActive
}

// ReadSetSize and WriteSetSize expose footprint counters for instrumentation.
func (t *Txn) ReadSetSize() int  { t.mu.Lock(); defer t.mu.Unlock(); return len(t.reads) }
func (t *Txn) WriteSetSize() int { t.mu.Lock(); defer t.mu.Unlock(); return len(t.writes) }

// lookupWrite returns the index of rec in the write set, or -1. The caller
// holds t.mu.
func (t *Txn) lookupWrite(rec *kv.Record) int {
	if t.writeSpill {
		if i, ok := t.writeIdx[rec]; ok {
			return i
		}
		return -1
	}
	for i := range t.writes {
		if t.writes[i].rec == rec {
			return i
		}
	}
	return -1
}

// indexWrite records that rec now lives at position i of the write set,
// spilling to the map index once the set outgrows the linear fast path. The
// caller holds t.mu.
func (t *Txn) indexWrite(rec *kv.Record, i int) {
	if !t.writeSpill {
		if len(t.writes) <= smallSetThreshold {
			return
		}
		if t.writeIdx == nil {
			t.writeIdx = make(map[*kv.Record]int, 2*smallSetThreshold)
		}
		for j := range t.writes {
			t.writeIdx[t.writes[j].rec] = j
		}
		t.writeSpill = true
		return
	}
	t.writeIdx[rec] = i
}

// lookupRead returns the index of rec in the read set, or -1 if absent. The
// caller holds t.mu.
func (t *Txn) lookupRead(rec *kv.Record) int {
	if t.readSpilled {
		if i, ok := t.readIdx[rec]; ok {
			return i
		}
		return -1
	}
	for i := range t.reads {
		if t.reads[i].rec == rec {
			return i
		}
	}
	return -1
}

// indexRead mirrors indexWrite for the read set. The caller holds t.mu.
func (t *Txn) indexRead(rec *kv.Record, i int) {
	if !t.readSpilled {
		if len(t.reads) <= smallSetThreshold {
			return
		}
		if t.readIdx == nil {
			t.readIdx = make(map[*kv.Record]int, 4*smallSetThreshold)
		}
		for j := range t.reads {
			t.readIdx[t.reads[j].rec] = j
		}
		t.readSpilled = true
		return
	}
	t.readIdx[rec] = i
}

// internKey copies key into the transaction's arena and returns a stable
// slice. Arena growth leaves previously returned slices pointing at the old
// backing array, so they remain valid until the transaction is released.
func (t *Txn) internKey(key []byte) []byte {
	start := len(t.keyArena)
	t.keyArena = append(t.keyArena, key...)
	return t.keyArena[start:len(t.keyArena):len(t.keyArena)]
}

// Read returns the current value of rec as seen by this transaction: its own
// pending write if any, otherwise a stable read of the committed version,
// which is added to the read set for commit-time validation. Re-reading a
// record that changed since the transaction first read it returns
// ErrConflict: validation is bound to fail, and the caller must not act on a
// view that mixes the two versions (a row it saw present, now gone).
func (t *Txn) Read(rec *kv.Record) (data []byte, present bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateActive {
		return nil, false, ErrTxnClosed
	}
	if i := t.lookupWrite(rec); i >= 0 {
		w := &t.writes[i]
		if w.kind == writeDelete {
			return nil, false, nil
		}
		return w.data, true, nil
	}
	data, tid, present := rec.StableRead()
	if !t.observe(rec, tid) {
		return nil, false, ErrConflict
	}
	return data, present, nil
}

// observe appends rec to the read set and tracks the largest TID seen. It
// reports false if rec is already in the read set at another version. The
// caller holds t.mu.
func (t *Txn) observe(rec *kv.Record, tid uint64) bool {
	if tid > t.maxTID {
		t.maxTID = tid
	}
	if i := t.lookupRead(rec); i >= 0 {
		return t.reads[i].tid == tid
	}
	t.reads = append(t.reads, readEntry{rec: rec, tid: tid})
	t.indexRead(rec, len(t.reads)-1)
	return true
}

// Write buffers an update of rec to data. key identifies the row
// (reactor/table/primary-key) for the WAL; it is copied into the transaction's
// arena, so the caller may reuse its buffer. guard may be nil for updates of
// tables without secondary indexes, since those do not change table structure;
// for indexed tables the caller must pass the table so the install phase can
// maintain its index entries under the structural latch.
func (t *Txn) Write(rec *kv.Record, key []byte, data []byte, guard ScanGuard) error {
	return t.bufferWrite(rec, key, data, writeUpdate, guard)
}

// Insert buffers the insertion of a new row. rec must be the record obtained
// from Table.GetOrInsert for the row's key. If the record is already present
// (committed by another transaction), ErrDuplicateKey is returned. The
// record's current (absent) version joins the read set so that a concurrent
// insert of the same key is detected at validation.
func (t *Txn) Insert(rec *kv.Record, key []byte, data []byte, guard ScanGuard) error {
	t.mu.Lock()
	if t.state != stateActive {
		t.mu.Unlock()
		return ErrTxnClosed
	}
	if i := t.lookupWrite(rec); i >= 0 {
		// Re-insert of a key this transaction previously deleted becomes an
		// update; re-insert of a key it already inserted is a duplicate.
		if t.writes[i].kind == writeDelete {
			t.writes[i].kind = writeUpdate
			t.writes[i].data = data
			t.mu.Unlock()
			return nil
		}
		t.mu.Unlock()
		return fmt.Errorf("%w: %x", ErrDuplicateKey, key)
	}
	_, tid, present := rec.StableRead()
	if present {
		t.mu.Unlock()
		return fmt.Errorf("%w: %x", ErrDuplicateKey, key)
	}
	if !t.observe(rec, tid) {
		t.mu.Unlock()
		return ErrConflict
	}
	t.mu.Unlock()
	return t.bufferWrite(rec, key, data, writeInsert, guard)
}

// Delete buffers the logical deletion of rec.
func (t *Txn) Delete(rec *kv.Record, key []byte, guard ScanGuard) error {
	return t.bufferWrite(rec, key, nil, writeDelete, guard)
}

func (t *Txn) bufferWrite(rec *kv.Record, key []byte, data []byte, kind writeKind, guard ScanGuard) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateActive {
		return ErrTxnClosed
	}
	if i := t.lookupWrite(rec); i >= 0 {
		prev := &t.writes[i]
		switch {
		case kind == writeDelete:
			// Insert followed by delete within the same transaction nets out
			// to "leave absent", but the delete intent is kept so the key's
			// version still advances and concurrent inserts of the same key
			// are serialized.
			prev.kind = writeDelete
			prev.data = nil
			if prev.guard == nil {
				prev.guard = guard
			}
		case prev.kind == writeDelete:
			prev.kind = writeUpdate
			prev.data = data
		default:
			prev.data = data
		}
		return nil
	}
	t.writes = append(t.writes, writeEntry{rec: rec, key: t.internKey(key), data: data, kind: kind, guard: guard})
	t.indexWrite(rec, len(t.writes)-1)
	return nil
}

// RegisterScan records the structural version of a scanned table so that
// commit-time validation can detect phantoms (inserts or deletes committed by
// other transactions after the scan). The scan set stays small (one entry per
// scanned table), so dedup is a linear probe.
func (t *Txn) RegisterScan(guard ScanGuard) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateActive {
		return ErrTxnClosed
	}
	for i := range t.scans {
		if t.scans[i].guard == guard {
			return nil
		}
	}
	t.scans = append(t.scans, scanEntry{guard: guard, version: guard.Version()})
	return nil
}

// EachPendingWrite calls fn for every buffered insert, update or delete that
// targets a table using guard. The query layer uses it to make a
// transaction's own structural changes visible to its later scans. The key
// slice is arena-backed: valid only until the transaction is released.
func (t *Txn) EachPendingWrite(guard ScanGuard, fn func(key []byte, data []byte, deleted bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.writes {
		w := &t.writes[i]
		if w.guard == guard {
			fn(w.key, w.data, w.kind == writeDelete)
		}
	}
}

// PendingWriteFor returns the buffered data for the record, if any.
func (t *Txn) PendingWriteFor(rec *kv.Record) (data []byte, deleted, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.lookupWrite(rec)
	if i < 0 {
		return nil, false, false
	}
	w := &t.writes[i]
	return w.data, w.kind == writeDelete, true
}

// TID returns the transaction's TID, or zero if none has been assigned yet.
// Assignment happens in AssignTID (prepared transactions, for the WAL) or in
// CommitPrepared, so a non-zero TID does not imply the transaction
// committed: a prepared transaction whose TID was pre-assigned can still
// abort.
func (t *Txn) TID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tid
}

// ReadOnly reports whether the transaction buffered no writes.
func (t *Txn) ReadOnly() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.writes) == 0
}

// --- Commit protocol ---------------------------------------------------------

// holdsGuardLocked reports whether g is among the structural guards this
// transaction locked during Prepare. The caller holds t.mu.
func (t *Txn) holdsGuardLocked(g ScanGuard) bool {
	for _, h := range t.lockedGuards {
		if h == g {
			return true
		}
	}
	return false
}

// Prepare runs the first phase of the commit protocol: it locks the write set
// in a deterministic order, then validates the read set and scan set. On
// success the transaction is left in the prepared state holding its locks; the
// caller must follow up with CommitPrepared or AbortPrepared. On validation
// failure all locks are released, the transaction aborts, and ErrConflict is
// returned.
func (t *Txn) Prepare() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateActive {
		return ErrTxnClosed
	}

	// Phase 1: lock the write set, ordered by record identity so that
	// concurrent transactions cannot deadlock. The ordering buffer is the
	// lockedRecs slice itself, reused across pooled transactions.
	t.lockedRecs = t.lockedRecs[:0]
	for i := range t.writes {
		t.lockedRecs = append(t.lockedRecs, t.writes[i].rec)
	}
	slices.SortFunc(t.lockedRecs, func(a, b *kv.Record) int {
		pa, pb := recPtr(a), recPtr(b)
		switch {
		case pa < pb:
			return -1
		case pa > pb:
			return 1
		default:
			return 0
		}
	})
	for _, rec := range t.lockedRecs {
		rec.Lock()
		if tid := rec.TID(); tid > t.maxTID {
			t.maxTID = tid
		}
	}

	// Lock the structural guards of tables this transaction inserts into,
	// deletes from, or updates with index maintenance (any guarded write), so
	// concurrent scan validation cannot race with our bump or observe a
	// half-applied index entry move. The guard list is tiny (one per touched
	// table), so dedup is a linear probe into the reused lockedGuards slice.
	t.lockedGuards = t.lockedGuards[:0]
	for i := range t.writes {
		g := t.writes[i].guard
		if g == nil || t.holdsGuardLocked(g) {
			continue
		}
		t.lockedGuards = append(t.lockedGuards, g)
	}
	slices.SortFunc(t.lockedGuards, func(a, b ScanGuard) int {
		pa, pb := guardPtr(a), guardPtr(b)
		switch {
		case pa < pb:
			return -1
		case pa > pb:
			return 1
		default:
			return 0
		}
	})
	for _, g := range t.lockedGuards {
		g.LockStructure()
	}

	// Phase 2: validate reads and scans.
	for i := range t.reads {
		r := &t.reads[i]
		lockedByMe := t.lookupWrite(r.rec) >= 0
		if !r.rec.ValidateVersion(r.tid, lockedByMe) {
			t.abortPrepareLocked()
			return ErrConflict
		}
	}
	for i := range t.scans {
		s := &t.scans[i]
		if t.holdsGuardLocked(s.guard) {
			// We hold this guard ourselves (we also modify the table's
			// structure); only the version needs to be rechecked.
			if s.guard.Version() != s.version {
				t.abortPrepareLocked()
				return ErrConflict
			}
			continue
		}
		// Another preparing transaction holding the guard is about to change
		// the table's structure; treat it as a conflict rather than blocking,
		// so preparing transactions can never deadlock on guards.
		if !s.guard.TryLockStructure() {
			t.abortPrepareLocked()
			return ErrConflict
		}
		version := s.guard.Version()
		s.guard.UnlockStructure()
		if version != s.version {
			t.abortPrepareLocked()
			return ErrConflict
		}
	}
	t.state = statePrepared
	return nil
}

// abortPrepareLocked releases locks and marks the transaction aborted after a
// validation failure. The caller holds t.mu.
func (t *Txn) abortPrepareLocked() {
	t.releaseLocksLocked()
	t.state = stateAborted
	t.domain.aborted.Add(1)
}

// AssignTID assigns (or returns the already-assigned) commit TID of a
// prepared transaction before the write phase installs its writes. The
// durability layer uses it to append the commit record to the WAL *ahead of*
// in-memory visibility: because no other transaction can observe the writes
// until CommitPrepared installs them, any dependent commit's append — and
// therefore its fsync, which covers everything appended before it — is
// ordered after this transaction's record, so recovery can never replay a
// dependent commit without its antecedent.
func (t *Txn) AssignTID() (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != statePrepared {
		return 0, ErrTxnClosed
	}
	if t.tid == 0 {
		t.tid = t.domain.nextTID(t.maxTID)
	}
	return t.tid, nil
}

// PreparedWrites calls fn for every buffered write of a prepared transaction
// — the write set CommitPrepared is about to install — in buffer order. The
// data slice must be treated as immutable; the key slice is arena-backed and
// valid only until the transaction is released. For a transaction that is not
// prepared, fn is never called.
func (t *Txn) PreparedWrites(fn func(key []byte, data []byte, deleted bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != statePrepared {
		return
	}
	for i := range t.writes {
		w := &t.writes[i]
		fn(w.key, w.data, w.kind == writeDelete)
	}
}

// CommitPrepared runs the write phase after a successful Prepare: it installs
// buffered writes under a fresh TID (or the one AssignTID already chose),
// bumps structural versions, and releases all locks. It returns the TID
// assigned to the transaction.
func (t *Txn) CommitPrepared() (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != statePrepared {
		return 0, ErrTxnClosed
	}
	tid := t.tid
	if tid == 0 {
		tid = t.domain.nextTID(t.maxTID)
		t.tid = tid
	}
	for i := range t.writes {
		w := &t.writes[i]
		// Capture the pre-install record state while the latch is held, so
		// index maintenance can retract exactly the entries the old row
		// contributed.
		maintainer, maintain := w.guard.(IndexMaintainer)
		var oldData []byte
		var oldPresent bool
		if maintain {
			oldData = w.rec.Data()
			oldPresent = !w.rec.Absent()
		}
		switch w.kind {
		case writeDelete:
			w.rec.UnlockWithTID(tid, true)
		default:
			w.rec.SetData(w.data)
			w.rec.UnlockWithTID(tid, false)
		}
		structural := w.kind != writeUpdate
		if maintain && maintainer.ApplyIndexWrite(oldData, oldPresent, w.data, w.kind == writeDelete) {
			structural = true
		}
		if w.guard != nil && structural {
			w.guard.BumpVersion()
		}
	}
	t.lockedRecs = t.lockedRecs[:0]
	for _, g := range t.lockedGuards {
		g.UnlockStructure()
	}
	t.lockedGuards = t.lockedGuards[:0]
	t.state = stateCommitted
	t.domain.committed.Add(1)
	return tid, nil
}

// AbortPrepared releases the locks taken by Prepare without installing any
// write, leaving all records unchanged.
func (t *Txn) AbortPrepared() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != statePrepared {
		return ErrTxnClosed
	}
	t.releaseLocksLocked()
	t.state = stateAborted
	t.domain.aborted.Add(1)
	return nil
}

// Commit runs the full single-domain commit protocol. It returns the assigned
// TID on success and ErrConflict if validation failed.
func (t *Txn) Commit() (uint64, error) {
	if err := t.Prepare(); err != nil {
		return 0, err
	}
	return t.CommitPrepared()
}

// Abort abandons an active transaction without touching any record.
func (t *Txn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stateActive {
		return
	}
	t.state = stateAborted
	t.domain.aborted.Add(1)
}

// releaseLocksLocked releases record and guard locks taken during Prepare.
// The caller holds t.mu.
func (t *Txn) releaseLocksLocked() {
	for _, rec := range t.lockedRecs {
		rec.Unlock()
	}
	t.lockedRecs = t.lockedRecs[:0]
	for _, g := range t.lockedGuards {
		g.UnlockStructure()
	}
	t.lockedGuards = t.lockedGuards[:0]
}

// Release returns a finished (committed or aborted) transaction to the
// domain's pool for reuse. An active transaction is aborted first. A prepared
// transaction — which still holds record and guard locks — is never recycled;
// the call is a no-op so a caller bug cannot corrupt lock state.
//
// After Release the transaction must not be used: its buffers (including all
// key slices previously handed to EachPendingWrite/PreparedWrites callbacks)
// are reused by the next transaction the domain begins.
func (t *Txn) Release() {
	t.mu.Lock()
	if t.state == stateActive {
		t.state = stateAborted
		t.domain.aborted.Add(1)
	}
	if t.state == statePrepared {
		t.mu.Unlock()
		return
	}
	d := t.domain
	t.resetLocked()
	t.mu.Unlock()
	d.pool.Put(t)
}

// resetLocked clears the transaction for reuse, keeping slice and map
// capacity. Entry slices are element-cleared first so pooled transactions do
// not pin records, guards or payloads of previous transactions. The caller
// holds t.mu.
func (t *Txn) resetLocked() {
	clear(t.reads)
	t.reads = t.reads[:0]
	clear(t.writes)
	t.writes = t.writes[:0]
	clear(t.scans)
	t.scans = t.scans[:0]
	clear(t.lockedRecs[:cap(t.lockedRecs)])
	t.lockedRecs = t.lockedRecs[:0]
	clear(t.lockedGuards[:cap(t.lockedGuards)])
	t.lockedGuards = t.lockedGuards[:0]
	if t.readSpilled {
		clear(t.readIdx)
		t.readSpilled = false
	}
	if t.writeSpill {
		clear(t.writeIdx)
		t.writeSpill = false
	}
	t.keyArena = t.keyArena[:0]
	t.maxTID = 0
	t.tid = 0
	t.domain = nil
	t.state = stateActive
}
