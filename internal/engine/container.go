package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"reactdb/internal/kv"
	"reactdb/internal/occ"
	"reactdb/internal/rel"
	"reactdb/internal/vclock"
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
	committer    *groupCommitter // nil unless group commit is enabled
	wal          *wal.Log        // nil unless Durability.Mode == DurabilityWAL

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
	if db.cfg.Durability.Mode == DurabilityWAL {
		storage := db.cfg.Durability.Storage.Sub(fmt.Sprintf("container-%d", id))
		log, err := wal.Open(storage, wal.Options{SegmentSize: db.cfg.Durability.SegmentSize})
		if err != nil {
			return nil, fmt.Errorf("engine: container %d: open wal: %w", id, err)
		}
		c.wal = log
		c.walStorage = storage
		// Stamp the log with the node's failover term: records append under
		// the current epoch, and a fence recorded by a supervisor (this node
		// was deposed) rejects appends before the first transaction runs.
		log.SetEpoch(db.walEpoch.Load())
		if fence := db.walFence.Load(); fence > 0 {
			log.Fence(fence)
		}
		// Seed the checkpoint sequence past anything already on storage so a
		// fresh incarnation never overwrites a predecessor's checkpoint, even
		// when Recover is skipped. A listing failure must fail Open: silently
		// restarting at sequence 0 would let a later truncation strand a
		// stale higher-sequence checkpoint that recovery then prefers.
		seqs, err := storage.ListCheckpoints()
		if err != nil {
			return nil, fmt.Errorf("engine: container %d: list checkpoints: %w", id, err)
		}
		if len(seqs) > 0 {
			c.ckptSeq = seqs[len(seqs)-1]
		}
	}
	for i := 0; i < db.cfg.ExecutorsPerContainer; i++ {
		c.executors = append(c.executors, newExecutor(c, i))
	}
	// Run loops start only after the executor slice is complete: a stealing
	// loop reads its siblings from the moment it runs.
	for _, e := range c.executors {
		e.start()
	}
	if db.cfg.GroupCommit.Enabled {
		c.committer = newGroupCommitter(c)
	}
	return c, nil
}

// shutdown stops the container's executors (draining their request queues),
// its group committer, and closes its write-ahead log.
func (c *Container) shutdown() {
	for _, e := range c.executors {
		e.shutdown()
	}
	if c.committer != nil {
		c.committer.stop()
	}
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
// single-container transaction (txn), a pre-built WAL record to append with
// the batch (rec: a 2PC prepare or decision record), or — with both nil — a
// pure durability barrier, acknowledged once everything appended before it is
// durable (read-only 2PC participants use it to force their antecedents).
type gcEntry struct {
	txn  *occ.Txn
	rec  *wal.Record
	done chan error
}

// submit hands one entry to the commit pipeline and returns the channel its
// outcome arrives on: with the group committer's next batch when one is
// running, as a batch of one run right here on the caller's goroutine
// otherwise (no committer goroutine, no window timer). The wait is log
// latency, not CPU work, so a caller holding an executor core releases it:
// before the call when the batch of one runs inline, after it — once the
// entry is in the batch — when a committer takes it (see rootTxn.commit).
//
// A false return means the committer has been stopped and did not accept the
// entry; the caller still owns its transaction (prepared, holding its locks)
// and must abort it. Failing fast closes the shutdown race in which an entry
// appended concurrently with stop, after the loop's final drain, would never
// be flushed and its waiter would block forever.
func (c *Container) submit(e gcEntry) (<-chan error, bool) {
	e.done = make(chan error, 1)
	if gc := c.committer; gc != nil {
		return e.done, gc.enqueue(e)
	}
	c.commitBatch([]gcEntry{e})
	return e.done, true
}

// commitBatch is the commit pipeline — every commit of every deployment runs
// these five stages, and nothing else acknowledges one:
//
//  1. Stage: serialize each prepared transaction's write set into a commit
//     record; pre-built 2PC records ride along (their transactions stay
//     prepared — the coordinator owns their write phase).
//  2. Append the batch's records as one buffer, one write, *before* the write
//     phase makes the writes visible (see walRecordPrepared). If the append
//     fails nothing was installed yet and the whole batch aborts cleanly.
//  3. Write phase: install every transaction's writes and release its locks.
//  4. Force: one fsync for the batch (the modeled Costs.LogWrite without a
//     WAL). It runs even for an all-read-only or barrier-only batch — the
//     antecedent records its members read are already appended, and an
//     already-durable log absorbs the call.
//  5. Ship-wait: withhold the acknowledgments until every attached semi-sync
//     replica durably mirrors the batch; fails on a fenced primary.
//
// Then every entry learns its outcome. Record and barrier entries are
// acknowledged by the force and ship-wait outcome alone; transactions
// additionally carry their write-phase error. A transaction whose write phase
// installed in memory but whose force or ship-wait failed is not
// acknowledged: survivors of a crash or failover at that point are exactly
// the fsynced, shipped prefix of the log.
func (c *Container) commitBatch(batch []gcEntry) {
	w := c.wal
	txns := make([]*occ.Txn, 0, len(batch))
	var recs []wal.Record
	if w != nil {
		recs = make([]wal.Record, 0, len(batch))
	}
	for _, e := range batch {
		switch {
		case e.txn != nil:
			txns = append(txns, e.txn)
			if w != nil {
				// AssignTID fails only for transactions that are not prepared;
				// CommitPreparedBatch reports ErrTxnClosed for those slots.
				if rec, err := walRecordPrepared(e.txn); err == nil && len(rec.Writes) > 0 {
					recs = append(recs, rec)
				}
			}
		case e.rec != nil:
			// Only forceRecord submits records, and only to a container with
			// a WAL.
			recs = append(recs, *e.rec)
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
	if w == nil {
		vclock.Work(c.db.cfg.Costs.LogWrite)
	} else if ackErr = c.appendSync(); ackErr == nil {
		// One wait covers the batch — the amortization that makes semi-sync
		// affordable under group commit. Prepare records are held here too,
		// which keeps the mirror-safety ordering (prepares mirrored before
		// their decision is appended) live under semi-sync 2PC.
		ackErr = c.db.repl.waitShipped(c.id, w.DurableLSN())
	}
	next := 0 // index into errs of the next transaction entry
	for _, e := range batch {
		err := ackErr
		if e.txn != nil {
			if errs[next] != nil {
				err = errs[next]
			}
			next++
		}
		e.done <- err
	}
}

// appendSync appends recs to the container's log as one write and fsyncs the
// log; with no records it is the bare force. It is the one place the engine
// forces its log: the commit pipeline's force stage, and — with no window and
// no ship-wait — abort tombstones and heartbeats, which must not block behind
// a batch or a stuck replica.
func (c *Container) appendSync(recs ...wal.Record) error {
	if len(recs) > 0 {
		if _, err := c.wal.AppendBatch(recs); err != nil {
			return err
		}
	}
	return c.wal.Sync()
}

// forceRecord makes rec durable in the container's log — and mirrored by
// semi-sync replicas — before the returned channel delivers nil, by
// submitting it to the commit pipeline. A nil rec is a pure durability
// barrier: nothing is appended, and the acknowledgment means everything
// appended to this log before the call is durable (read-only 2PC
// participants use it so their antecedents are durable before the decision).
// A nil channel with a nil error means the container has no WAL and there is
// nothing to force.
func (c *Container) forceRecord(rec *wal.Record) (<-chan error, error) {
	if c.wal == nil {
		return nil, nil
	}
	ch, ok := c.submit(gcEntry{rec: rec})
	if !ok {
		// The committer stopped (shutdown racing the tail of an in-flight
		// commit); the caller aborts rather than blocking forever.
		return nil, errDatabaseClosed
	}
	return ch, nil
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

// recover replays the container's WAL into its catalogs and concurrency
// control domain, returning the number of transactions replayed. decided
// holds the global ids for which a durable (unretracted) decision record
// exists in any container's log; prepare records outside it are resolved by
// presumed abort — skipped, counted as recovered aborts, and tombstoned with
// a durable abort record so no later incarnation can resurrect them even if
// global ids were ever reused. See Database.Recover.
//
// When a checkpoint was installed first (Database.Recover's fast path),
// c.replayFloor holds its low-water mark and every record at or below it is
// skipped: its effects are already in the snapshot, and its segments may
// already be gone. The filter is by LSN, not by segment, so recovery is
// correct whether truncation ran to completion, partially, or not at all.
func (c *Container) recover(decided map[uint64]bool) (int, error) {
	if c.wal == nil {
		return 0, nil
	}
	n := 0
	var presumedAborted []uint64
	err := c.wal.Replay(func(rec wal.Record) error {
		if rec.LSN <= c.replayFloor {
			// Captured by the checkpoint: committed effects are in the
			// snapshot, prepares were resolved before the quiesce point.
			return nil
		}
		switch rec.Kind {
		case wal.KindDecision:
			// Decisions were collected in the scan pass; their effects are
			// the prepare records they decide, replayed on each participant.
			return nil
		case wal.KindPrepare:
			if !decided[rec.GlobalID] {
				presumedAborted = append(presumedAborted, rec.TID)
				c.domain.ObserveRecoveredAbort(rec.TID)
				return nil
			}
		}
		if err := c.installRecord(&rec); err != nil {
			return fmt.Errorf("engine: recovery: %w", err)
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	// Tombstone the presumed aborts after replay finished (the log must not
	// grow mid-Replay) and make the tombstones durable: one write, one fsync.
	if len(presumedAborted) > 0 {
		tombstones := make([]wal.Record, len(presumedAborted))
		for i, tid := range presumedAborted {
			tombstones[i] = wal.Record{TID: tid, Kind: wal.KindAbort}
		}
		if err := c.appendSync(tombstones...); err != nil {
			return n, fmt.Errorf("engine: recovery: tombstoning presumed aborts in container %d: %w", c.id, err)
		}
	}
	return n, nil
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
