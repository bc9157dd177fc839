package engine

import (
	"errors"
	"fmt"
	"time"

	"reactdb/internal/kv"
	"reactdb/internal/wal"
)

// This file is the fuzzy checkpointer: it snapshots each container's
// committed catalog state into a durable wal.Checkpoint and truncates log
// segments wholly below the snapshot's low-water mark, bounding log growth
// and turning recovery from O(history) replay into "install snapshot, replay
// suffix".
//
// The fuzzy protocol hinges on one short quiesce: every root transaction's
// commit protocol — from its first WAL append to its last in-memory install,
// including 2PC prepare/decision forcing and failure retractions — runs under
// db.commitGate.RLock (see Database.runTask). Checkpoint takes the write
// lock for just long enough to read each log's last assigned LSN and the
// transaction-id watermarks. At that instant no transaction sits between
// "appended" and "installed", so every record at or below the observed LSN
// has its effects in memory, and every multi-container transaction with any
// record at or below it is fully resolved on all participants (its records
// were all appended before the quiesce, hence all below their logs' marks —
// prepares, decision and any retractions truncate together). The snapshot
// itself then runs concurrently with new commits: rows are read atomically
// one at a time (StableRead), and anything newer that leaks in is harmless
// because suffix replay is idempotent, newest TID wins.

// errCheckpointClosed is returned by Checkpoint on a closed database.
var errCheckpointClosed = errors.New("engine: checkpoint on closed database")

// checkpointCounters is one container's checkpoint accounting (guarded by
// Container.ckptMu).
type checkpointCounters struct {
	checkpoints     uint64
	lastLowLSN      uint64
	lastRows        int
	lastBytes       int
	segmentsDeleted uint64
	restoredRows    int
	corruptSkipped  int
}

// Checkpoint takes one fuzzy checkpoint of every container and truncates each
// container's log below its snapshot's low-water mark. It is safe to call
// concurrently with a running workload (commits stall only for the
// microsecond-scale quiesce read) and is a no-op under durability modes
// without a WAL. The background checkpointer (Durability.CheckpointInterval)
// calls it on a timer; on-demand callers use it before a planned shutdown to
// make the next recovery near-instant.
func (db *Database) Checkpoint() error {
	if db.cfg.Durability.Mode != DurabilityWAL {
		return nil
	}
	if db.closed.Load() {
		return errCheckpointClosed
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// Quiesce: with the commit gate held exclusively, no commit protocol is
	// in flight, so each log's last LSN is an exact "everything at or below
	// is installed and resolved" mark. Only cheap in-memory reads happen
	// under the gate.
	type mark struct {
		lowLSN uint64
		maxTID uint64
	}
	marks := make([]mark, len(db.containers))
	db.commitGate.Lock()
	for i, c := range db.containers {
		if c.wal == nil {
			continue
		}
		marks[i] = mark{lowLSN: c.wal.LastLSN(), maxTID: c.domain.TIDWatermark()}
	}
	maxGid := db.nextTxnID.Load()
	db.commitGate.Unlock()

	// Phase one: snapshot and durably write EVERY container's checkpoint.
	// Phase two — truncation — starts only after all writes succeeded.
	// The round must be two-phased because 2PC decision records live only
	// on the coordinator's log: if the coordinator truncated its round-N
	// segments while a participant's round-N checkpoint never became
	// durable, a crash would recover the participant at round N-1, replay a
	// prepare whose decision the coordinator just deleted, and presume-abort
	// a committed transaction. With the barrier, recovering containers can
	// only disagree about rounds whose truncation never ran, and then every
	// decision a replayed prepare needs is still in some log.
	for i, c := range db.containers {
		if c.wal == nil {
			continue
		}
		if err := c.writeCheckpoint(marks[i].lowLSN, marks[i].maxTID, maxGid); err != nil {
			return fmt.Errorf("engine: checkpoint container %d: %w", c.id, err)
		}
	}
	for _, c := range db.containers {
		if c.wal == nil {
			continue
		}
		if err := c.truncateCheckpointed(); err != nil {
			return fmt.Errorf("engine: checkpoint container %d: truncate: %w", c.id, err)
		}
	}
	return nil
}

// writeCheckpoint snapshots this container's catalogs and writes the
// checkpoint durably. Truncation is deliberately not part of it — see the
// round barrier in Database.Checkpoint.
func (c *Container) writeCheckpoint(lowLSN, maxTID, maxGid uint64) error {
	c.ckptMu.Lock()
	seq := c.ckptSeq + 1
	c.ckptMu.Unlock()

	cp := &wal.Checkpoint{
		Seq:         seq,
		LowLSN:      lowLSN,
		MaxTID:      maxTID,
		MaxGlobalID: maxGid,
		Rows:        c.snapshotRows(),
	}
	// The capture horizon: snapshotRows ran concurrently with commits, so
	// Rows may carry effects of any record up to the log's LSN at this point
	// — and of nothing newer. Failover divergence repair needs the bound to
	// decide whether truncating the log above some LSN invalidates this
	// checkpoint (see wal.Checkpoint.HighLSN).
	cp.HighLSN = c.wal.LastLSN()
	buf := wal.EncodeCheckpoint(cp)
	if err := c.walStorage.WriteCheckpoint(seq, buf); err != nil {
		return err
	}
	c.ckptMu.Lock()
	c.ckptSeq = seq
	c.ckptStats.checkpoints++
	c.ckptStats.lastLowLSN = lowLSN
	c.ckptStats.lastRows = len(cp.Rows)
	c.ckptStats.lastBytes = len(buf)
	c.ckptMu.Unlock()
	return nil
}

// truncateCheckpointed reclaims segments wholly below the newest durable
// checkpoint's low-water mark, then prunes superseded checkpoint blobs —
// strictly in that order: until the newest checkpoint survives a crash, a
// predecessor must remain as the recovery fallback. A failed deletion is
// simply retried by the next checkpoint round.
func (c *Container) truncateCheckpointed() error {
	c.ckptMu.Lock()
	seq := c.ckptSeq
	lowLSN := c.ckptStats.lastLowLSN
	c.ckptMu.Unlock()

	// Replication clamp: never delete segments an attached replica has not
	// durably mirrored yet. A freshly attached replica holds the floor at
	// zero until its bootstrap catches up; a detached (or crashed) replica
	// stops constraining truncation and re-bootstraps from a checkpoint if it
	// later returns behind the log (wal.ErrShipGap).
	if f, ok := c.db.repl.floor(c.id); ok && f < lowLSN {
		lowLSN = f
	}

	deleted, truncErr := c.wal.TruncateBelow(lowLSN)
	if deleted > 0 {
		c.ckptMu.Lock()
		c.ckptStats.segmentsDeleted += uint64(deleted)
		c.ckptMu.Unlock()
	}
	if truncErr != nil {
		return truncErr
	}
	seqs, err := c.walStorage.ListCheckpoints()
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s >= seq {
			continue
		}
		if err := c.walStorage.DeleteCheckpoint(s); err != nil {
			return err
		}
	}
	return nil
}

// snapshotRows captures every indexed row of every catalog hosted by the
// container, keyed the way WAL records key their writes: present rows with
// their payloads, committed deletions (absent with a non-zero TID) as
// tombstones — without them, a loader re-run before Recover could resurrect
// a row whose delete record the checkpoint absorbed and truncation erased.
// Never-committed inserts (absent at TID 0) are skipped. Each row is read
// atomically (StableRead); the snapshot as a whole is fuzzy — see the file
// comment for why that is sufficient.
func (c *Container) snapshotRows() []wal.CheckpointRow {
	var rows []wal.CheckpointRow
	for reactor, cat := range c.catalogs {
		for relation, tbl := range cat.Tables() {
			prefix := reactor + "\x00" + relation + "\x00"
			tbl.AscendRange(nil, nil, func(key []byte, rec *kv.Record) bool {
				data, tid, present := rec.StableRead()
				switch {
				case present:
					rows = append(rows, wal.CheckpointRow{Key: prefix + string(key), TID: tid, Data: data})
				case tid > 0:
					rows = append(rows, wal.CheckpointRow{Key: prefix + string(key), TID: tid, Deleted: true})
				}
				return true
			})
		}
	}
	return rows
}

// installCheckpoint loads one recovered checkpoint into the container's
// catalogs and concurrency control domain: every captured row is installed
// (absent records accept any version, so loader-populated TID-0 base rows
// survive too), the domain's TID space advances past the snapshot's
// watermark, and the replay floor is set so the subsequent log replay touches
// only the suffix.
func (c *Container) installCheckpoint(cp *wal.Checkpoint) error {
	for _, row := range cp.Rows {
		r, tbl, err := c.recordFor(row.Key)
		if err != nil {
			return fmt.Errorf("engine: checkpoint: %w", err)
		}
		c.domain.InstallCheckpointRow(r, tbl, row.TID, row.Data, row.Deleted)
	}
	c.domain.ObserveRecoveredTID(cp.MaxTID)
	c.ckptMu.Lock()
	c.ckptSeq = cp.Seq
	c.replayFloor = cp.LowLSN
	c.ckptStats.restoredRows = len(cp.Rows)
	c.ckptMu.Unlock()
	return nil
}

// acquireCommitGate takes the commit gate in read mode on behalf of a root
// transaction about to run its commit protocol. The slow path — a checkpoint
// quiesce is pending, so the read lock blocks — releases the executor core
// first: a transaction already inside the gate may be waiting to re-acquire
// this very core after its group-commit ack, and blocking while holding the
// core would deadlock the two through the checkpointer (reader can't finish,
// writer can't start, blocked reader holds the core both need). No record
// latch is held yet at this point, so re-acquiring the core afterwards
// cannot deadlock against a latch spinner either.
func (db *Database) acquireCommitGate(session *coreSession) {
	if db.commitGate.TryRLock() {
		return
	}
	if session != nil {
		session.release()
		defer session.acquire()
	}
	db.commitGate.RLock()
}

// checkpointLoop is the background checkpointer, started by Open when
// Durability.CheckpointInterval is positive. Every tick it checkpoints the
// database, unless Durability.CheckpointBytes is set and the logs grew less
// than that since the last checkpoint.
func (db *Database) checkpointLoop() {
	defer db.ckptWG.Done()
	ticker := time.NewTicker(db.cfg.Durability.CheckpointInterval)
	defer ticker.Stop()
	var lastBytes uint64
	for {
		select {
		case <-db.ckptStop:
			return
		case <-ticker.C:
			total := uint64(0)
			if min := db.cfg.Durability.CheckpointBytes; min > 0 {
				for _, c := range db.containers {
					if c.wal != nil {
						total += c.wal.Stats().AppendedBytes
					}
				}
				if total-lastBytes < uint64(min) {
					continue
				}
			}
			// A failed checkpoint (e.g. storage trouble) is retried on the
			// next tick — lastBytes only advances on success, so the byte
			// threshold cannot swallow the retry; the previous checkpoint
			// remains the recovery plan meanwhile.
			if err := db.Checkpoint(); err == nil {
				lastBytes = total
			}
		}
	}
}

// CheckpointStats is a snapshot of one container's checkpoint activity.
type CheckpointStats struct {
	Container int
	// Enabled reports whether the container has a WAL; without one no
	// checkpoint is ever taken and the remaining fields are zero.
	Enabled bool
	// Checkpoints counts checkpoints taken by this incarnation; LastSeq is
	// the newest checkpoint sequence number written or recovered.
	Checkpoints uint64
	LastSeq     uint64
	// LastLowLSN, LastRows and LastBytes describe the newest checkpoint taken
	// by this incarnation: its replay low-water mark, captured row count and
	// encoded size.
	LastLowLSN uint64
	LastRows   int
	LastBytes  int
	// SegmentsDeleted counts log segments reclaimed by truncation (this
	// incarnation).
	SegmentsDeleted uint64
	// RestoredRows counts rows installed from a checkpoint by Recover;
	// ReplayFloor is the LSN at or below which Recover skipped log records.
	RestoredRows int
	ReplayFloor  uint64
	// CorruptSkipped counts checkpoints Recover skipped as torn or corrupt
	// before finding a valid one (or falling back to full replay).
	CorruptSkipped int
}

// CheckpointStats returns per-container checkpoint statistics.
func (db *Database) CheckpointStats() []CheckpointStats {
	out := make([]CheckpointStats, 0, len(db.containers))
	for _, c := range db.containers {
		s := CheckpointStats{Container: c.id}
		if c.wal != nil {
			s.Enabled = true
			c.ckptMu.Lock()
			s.Checkpoints = c.ckptStats.checkpoints
			s.LastSeq = c.ckptSeq
			s.LastLowLSN = c.ckptStats.lastLowLSN
			s.LastRows = c.ckptStats.lastRows
			s.LastBytes = c.ckptStats.lastBytes
			s.SegmentsDeleted = c.ckptStats.segmentsDeleted
			s.RestoredRows = c.ckptStats.restoredRows
			s.ReplayFloor = c.replayFloor
			s.CorruptSkipped = c.ckptStats.corruptSkipped
			c.ckptMu.Unlock()
		}
		out = append(out, s)
	}
	return out
}
