package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"reactdb/internal/kv"
	"reactdb/internal/occ"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// Container is a database container (paper §3.1): an isolated portion of the
// machine with its own storage (the catalogs of the reactors mapped to it),
// its own concurrency control domain, and its own transaction executors.
// Containers never share data; transactions spanning containers go through the
// two-phase commit coordinator.
type Container struct {
	db        *Database
	id        int
	domain    *occ.Domain
	executors []*Executor
	// nextExecutor is the round-robin router's cursor (see route).
	nextExecutor atomic.Uint64
	queue        commitQueue // every writing commit's way into commitBatch
	wal          *wal.Log    // nil unless Durability.Mode == DurabilityWAL

	// walStorage is the container's segment + checkpoint store (nil without a
	// WAL); the checkpointer writes snapshot blobs to it and recovery loads
	// the newest valid one from it.
	walStorage wal.Storage

	// ckptMu guards the checkpoint bookkeeping. Checkpoints themselves are
	// serialized by Database.ckptMu; this inner mutex only makes the stats
	// snapshot race-free.
	ckptMu      sync.Mutex
	ckptSeq     uint64 // newest checkpoint sequence written or found on open
	replayFloor uint64 // LSN at or below which Recover skipped log records
	ckptStats   checkpointCounters

	// catalogs holds the relational state of every reactor mapped to this
	// container, keyed by reactor name. The map is built at Open time and
	// never mutated afterwards, so it is safe for concurrent reads.
	catalogs map[string]*rel.Catalog

	// affinityMu guards lastExecutor, which records the executor that last
	// processed each reactor; it backs the affinity-miss cost model.
	affinityMu   sync.Mutex
	lastExecutor map[string]int
}

func newContainer(db *Database, id int) (*Container, error) {
	c := &Container{
		db:           db,
		id:           id,
		domain:       occ.NewDomain(fmt.Sprintf("container-%d", id)),
		catalogs:     make(map[string]*rel.Catalog),
		lastExecutor: make(map[string]int),
	}
	c.queue.init(db.cfg.GroupCommit.Window, db.cfg.GroupCommit.MaxBatch, db.cfg.Durability.Mode == DurabilityWAL)
	if db.cfg.Durability.Mode == DurabilityWAL {
		storage := db.cfg.Durability.Storage.Sub(fmt.Sprintf("container-%d", id))
		log, err := wal.Open(storage, wal.Options{SegmentSize: db.cfg.Durability.SegmentSize, Term: db.term})
		if err != nil {
			return nil, fmt.Errorf("engine: container %d: open wal: %w", id, err)
		}
		c.wal = log
		c.walStorage = storage
		if err := c.seedCheckpointSeq(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < db.cfg.ExecutorsPerContainer; i++ {
		c.executors = append(c.executors, newExecutor(c, i))
	}
	return c, nil
}

// seedCheckpointSeq moves the checkpoint sequence past every blob on storage,
// so no checkpoint overwrites a predecessor's, even when Recover is skipped.
// A listing failure must fail: restarting at sequence 0 would let a later
// truncation strand a stale higher-sequence checkpoint recovery prefers.
func (c *Container) seedCheckpointSeq() error {
	seqs, err := c.walStorage.ListCheckpoints()
	if err != nil {
		return fmt.Errorf("engine: container %d: list checkpoints: %w", c.id, err)
	}
	if len(seqs) > 0 {
		c.ckptMu.Lock()
		c.ckptSeq = max(c.ckptSeq, seqs[len(seqs)-1])
		c.ckptMu.Unlock()
	}
	return nil
}

// shutdown stops the container's executors (draining their request queues),
// its commit queue, and closes its write-ahead log.
func (c *Container) shutdown() {
	for _, e := range c.executors {
		e.shutdown()
	}
	c.queue.stop()
	if c.wal != nil {
		_ = c.wal.Close()
	}
}

// WAL returns the container's write-ahead log, or nil when the deployment
// does not use real durability.
func (c *Container) WAL() *wal.Log { return c.wal }

// walRecordPrepared assigns the prepared transaction's commit TID and
// serializes its write set into a WAL commit record. It must run *before*
// CommitPrepared installs the writes: appending ahead of in-memory
// visibility guarantees that any transaction reading those writes appends —
// and fsyncs — after this record, so recovery can never surface a dependent
// commit without its antecedent. An error means the transaction is not
// prepared.
func walRecordPrepared(txn *occ.Txn) (wal.Record, error) {
	tid, err := txn.AssignTID()
	if err != nil {
		return wal.Record{}, err
	}
	rec := wal.Record{TID: tid}
	// WAL record keys are strings; the conversion copies the transaction's
	// arena-backed key bytes, which is required anyway (the record outlives
	// the transaction) and cheap next to the fsync this record is headed for.
	txn.PreparedWrites(func(key []byte, data []byte, deleted bool) {
		rec.Writes = append(rec.Writes, wal.Write{Key: string(key), Data: data, Delete: deleted})
	})
	return rec, nil
}

// gcEntry is one unit of work for the commit pipeline: a prepared
// single-container transaction with writes (txn) or pre-built WAL records to
// append with the batch (recs: a 2PC prepare, followed on the coordinator by
// the decision).
type gcEntry struct {
	txn  *occ.Txn
	recs []wal.Record
	done chan error
}

// commitBatch is the commit pipeline, run by the commit queue's leader over
// each batch it takes (see lead) — every commit that writes, in every
// deployment, runs these five stages, and nothing else acknowledges one
// (read-only commits append nothing, see awaitObserved):
//
//  1. Stage: serialize each prepared transaction's write set into a commit
//     record; pre-built 2PC records ride along (their transactions stay
//     prepared — the coordinator owns their write phase).
//  2. Append the batch's records as one buffer, one write, *before* the write
//     phase makes the writes visible (see walRecordPrepared). If the append
//     fails nothing was installed yet and the whole batch aborts cleanly.
//  3. Write phase: install every transaction's writes and release its locks.
//  4. Force: one fsync for the batch (nothing without a WAL).
//  5. Ship-wait: withhold the acknowledgments until every attached semi-sync
//     replica durably mirrors the batch; fails on a fenced primary.
//
// Then every entry learns its outcome. Record entries are acknowledged by the
// force alone, before the ship-wait: their coordinator waits for the mirror
// itself once the whole round is durable, and must be free to retract a
// failed round first (commitTwoPhase). Transactions are acknowledged after
// the ship-wait and additionally carry their write-phase error. A transaction
// whose write phase installed in memory but whose force or ship-wait failed
// is not acknowledged: survivors of a crash or failover at that point are
// exactly the fsynced, shipped prefix of the log.
func (c *Container) commitBatch(batch []gcEntry) {
	w := c.wal
	txns := make([]*occ.Txn, 0, len(batch))
	var recs []wal.Record
	if w != nil {
		recs = make([]wal.Record, 0, len(batch)+1)
	}
	for _, e := range batch {
		if e.txn == nil {
			// Only two-phase commit submits records, and only to a container
			// with a WAL.
			recs = append(recs, e.recs...)
			continue
		}
		txns = append(txns, e.txn)
		if w != nil {
			// AssignTID fails only for transactions that are not prepared;
			// CommitPreparedBatch reports ErrTxnClosed for those slots.
			if rec, err := walRecordPrepared(e.txn); err == nil {
				recs = append(recs, rec)
			}
		}
	}
	if len(recs) > 0 {
		if _, err := w.AppendBatch(recs); err != nil {
			// Abort the batch's own transactions; 2PC record owners learn the
			// failure through their channel and abort their participants
			// themselves (the log has already retracted or wedged the batch's
			// frames, see wal.Log.AppendBatch).
			for _, t := range txns {
				_ = t.AbortPrepared()
			}
			for _, e := range batch {
				e.done <- err
			}
			return
		}
	}
	var errs []error
	if len(txns) > 0 {
		errs = c.domain.CommitPreparedBatch(txns)
	}
	var ackErr error
	if w != nil {
		ackErr = c.appendSync()
	}
	for _, e := range batch {
		if e.txn == nil {
			e.done <- ackErr
		}
	}
	if len(txns) == 0 {
		return
	}
	if ackErr == nil && w != nil {
		// One wait covers the batch — the amortization that makes semi-sync
		// affordable under group commit.
		ackErr = c.db.repl.waitShipped(c.id, w.DurableLSN())
	}
	next := 0 // index into errs of the next transaction entry
	for _, e := range batch {
		if e.txn == nil {
			continue
		}
		err := ackErr
		if errs[next] != nil {
			err = errs[next]
		}
		next++
		e.done <- err
	}
}

// appendSync appends recs to the container's log as one write and fsyncs the
// log; with no records it is the bare force. It is how the engine forces its
// log: the commit pipeline's force stage and — with no window and no
// ship-wait — abort tombstones and heartbeats, which must not block behind a
// batch or a stuck replica. (A read-only commit forces only through its
// watermark, see awaitObserved.)
func (c *Container) appendSync(recs ...wal.Record) error {
	if len(recs) > 0 {
		if _, err := c.wal.AppendBatch(recs); err != nil {
			return err
		}
	}
	return c.wal.Sync()
}

// awaitObserved is a read-only commit's wait (Silo's rule for read-only
// transactions): it returns once every write the validated transaction could
// have observed here is durable and, under semi-sync, mirrored. Each such
// write was appended before it was installed (walRecordPrepared), so the
// log's last LSN covers it. When the durable watermark already covers that
// the force is absorbed without IO and without the log's lock; a fenced or
// wedged log, or a fenced primary, fails the commit. The core is released
// only around a wait that can block; session is nil when the caller already
// released it. A replica read waits on nothing: it must never take the
// mirror's lock.
func (c *Container) awaitObserved(session *coreSession) error {
	w := c.wal
	if w == nil || c.db.replica.Load() {
		return nil
	}
	lsn := w.LastLSN()
	if session != nil && (w.DurableLSN() < lsn || c.db.repl.semiSync.Load() > 0) {
		session.release()
		defer session.acquire()
	}
	if err := w.SyncThrough(lsn); err != nil {
		return err
	}
	return c.db.repl.waitShipped(c.id, lsn)
}

// retractRecord appends an abort record for tid and fsyncs it, best-effort.
// It is called when a multi-participant commit fails after this container's
// log may already have received one of the transaction's records (a prepare
// record, under the decision protocol): presumed abort already guarantees
// recovery will not commit it, but the durable tombstone resolves the
// in-doubt record immediately instead of leaving it for the next recovery's
// presumed-abort pass. If this append fails the log wedges, which keeps any
// un-retracted record from ever being fsynced by this process.
func (c *Container) retractRecord(tid uint64) {
	if c.wal != nil {
		_ = c.appendSync(wal.Record{TID: tid, Kind: wal.KindAbort})
	}
}

// recordFor resolves a fully-qualified write key (see splitWALKey) to its
// record, indexing the key if it is new, and the record's table. It is the one
// place a logged or checkpointed key meets the catalogs.
func (c *Container) recordFor(walKey string) (*kv.Record, *rel.Table, error) {
	reactor, relation, key, ok := splitWALKey(walKey)
	if !ok {
		return nil, nil, fmt.Errorf("engine: malformed WAL key %q in container %d", walKey, c.id)
	}
	cat := c.catalogs[reactor]
	if cat == nil {
		return nil, nil, fmt.Errorf("engine: reactor %q not mapped to container %d (placement changed since the key was written?)", reactor, c.id)
	}
	tbl := cat.Table(relation)
	if tbl == nil {
		return nil, nil, fmt.Errorf("engine: unknown relation %s.%s in container %d", reactor, relation, c.id)
	}
	r, _ := tbl.GetOrInsert([]byte(key))
	return r, tbl, nil
}

// installRecord installs one log record's writes — newest TID wins on each
// primary record, secondary indexes maintained under the structural guard —
// and advances the domain's TID space past the record, so TIDs generated
// afterwards (after recovery, or on a promoted replica) are strictly newer. It
// is what recovery does with a replayed record and what a replica does with a
// shipped one. A write whose key does not resolve is skipped and the first
// such error returned after the rest are installed: recovery fails on it, a
// replica records it and keeps serving.
func (c *Container) installRecord(rec *wal.Record) error {
	var first error
	for _, w := range rec.Writes {
		r, tbl, err := c.recordFor(w.Key)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		c.domain.ApplyShippedWrite(r, tbl, rec.TID, w.Data, w.Delete)
	}
	c.domain.ObserveRecoveredTID(rec.TID)
	return first
}

// splitWALKey decomposes the engine's fully-qualified write key
// (reactor \x00 relation \x00 primary-key, see execContext.lockKey).
func splitWALKey(k string) (reactor, relation, key string, ok bool) {
	i := strings.IndexByte(k, 0)
	if i < 0 {
		return "", "", "", false
	}
	j := strings.IndexByte(k[i+1:], 0)
	if j < 0 {
		return "", "", "", false
	}
	return k[:i], k[i+1 : i+1+j], k[i+1+j+1:], true
}

// ID returns the container's index within the database.
func (c *Container) ID() int { return c.id }

// Domain returns the container's concurrency control domain.
func (c *Container) Domain() *occ.Domain { return c.domain }

// Executors returns the container's transaction executors.
func (c *Container) Executors() []*Executor { return c.executors }

// addReactor creates the catalog for a reactor of the given type, creating one
// table per relation declared by the type.
func (c *Container) addReactor(name string, schemas []*rel.Schema) error {
	if _, dup := c.catalogs[name]; dup {
		return fmt.Errorf("engine: reactor %q mapped to container %d twice", name, c.id)
	}
	cat := rel.NewCatalog()
	for _, s := range schemas {
		if _, err := cat.CreateTable(s); err != nil {
			return err
		}
	}
	c.catalogs[name] = cat
	return nil
}

// catalog returns the catalog of a reactor hosted by this container, or nil.
func (c *Container) catalog(reactor string) *rel.Catalog { return c.catalogs[reactor] }

// noteExecutorFor records that executor is about to process a request for the
// reactor and reports whether a different executor processed it last (an
// affinity miss).
func (c *Container) noteExecutorFor(reactor string, executor int) bool {
	c.affinityMu.Lock()
	last, seen := c.lastExecutor[reactor]
	c.lastExecutor[reactor] = executor
	c.affinityMu.Unlock()
	return seen && last != executor
}
