package engine

import (
	"fmt"

	"reactdb/internal/wal"
)

// Recover replays the containers' write-ahead logs into memory, restoring
// every acknowledged committed transaction. It is meant to run on startup,
// after Open (and after any loader-based bootstrap: replayed versions
// overwrite loaded rows, never the other way around) and before the database
// serves transactions. Under any durability mode other than DurabilityWAL it
// is a no-op.
//
// Replay applies full row images in log order, so it is idempotent: a write
// whose TID is not newer than the record's current version is skipped.
// Every acknowledged commit is replayed. For transactions that were still
// mid-flush when the previous incarnation died — appended but never fsynced
// — the outcome depends on what killed it: after a machine crash the page
// cache is gone and the CRC framing cuts the log at the last complete
// durable record, so they are not replayed; after a mere process kill their
// bytes may survive in the OS page cache, and Open adopts (and fsyncs) that
// inherited tail, so such never-acknowledged transactions can be replayed.
// Both are correct: an unacknowledged outcome is ambiguous by definition.
// Transactions that were definitively aborted (a participant's log append
// failed) are retracted with abort records and never resurface.
//
// Multi-container transactions are resolved by presumed abort, in one pass:
// each container's log is replayed once into the 2PC resolver (resolve.go),
// which installs a group's prepare records once its decision and the prepare
// of every participant the decision names have been fed, from whichever logs
// hold them (any log can be a coordinator log). Once every log is fed, the
// prepares of every group that is not complete — undecided, or decided with a
// named prepare that never became durable (the coordinator forces them all
// in one round, so a crash can keep the decision and lose a prepare) — are
// tombstoned with durable abort records. A transaction is never half-applied:
// recovery can never surface a multi-container transaction on a strict
// subset of its participants. Finally the root transaction id sequence is
// advanced past every global id seen in the logs, so ids never repeat across
// incarnations (a reused id could match a stale prepare record against a
// fresh decision).
//
// Recovery has a checkpoint fast path: when a container's storage holds a
// valid checkpoint (see Database.Checkpoint), its snapshot is installed first
// and only log records above the checkpoint's low-water mark are replayed —
// O(suffix) instead of O(history), which is what lets checkpointing truncate
// old segments at all. The filter is by LSN, not by segment, so recovery is
// correct whether truncation ran to completion, partially, or not at all. A
// torn or corrupt checkpoint (crash mid-write, bit rot) is never loaded
// partially: recovery falls back to the next older checkpoint, and finally to
// full replay of whatever segments remain.
//
// It returns the number of transactions replayed, counting a multi-container
// transaction once per participant whose log contributed writes; transactions
// restored via a checkpoint snapshot are not counted (see CheckpointStats
// for RestoredRows).
func (db *Database) Recover() (int, error) {
	if db.cfg.Durability.Mode != DurabilityWAL {
		return 0, nil
	}
	// Checkpoint pass: each container's newest valid checkpoint is installed
	// and sets its floor.
	var maxGid uint64
	floors := make([]uint64, len(db.containers))
	for i, c := range db.containers {
		cp, skipped, err := wal.LatestCheckpoint(c.walStorage)
		if err != nil {
			return 0, err
		}
		c.ckptMu.Lock()
		c.ckptStats.corruptSkipped = skipped
		c.ckptMu.Unlock()
		if cp == nil {
			continue
		}
		if err := c.installCheckpoint(cp); err != nil {
			return 0, err
		}
		floors[i] = cp.LowLSN
		maxGid = max(maxGid, cp.MaxGlobalID)
	}
	// Replay pass: one Replay per log into the resolver, installing whatever
	// it settles as it goes. Checkpoints contributed their global-id watermark
	// above, covering ids whose records truncation already deleted.
	res := newResolver(len(db.containers))
	res.setFloors(floors)
	total := 0
	var installErr error
	install := func(s int, rec *wal.Record) {
		if err := db.containers[s].installRecord(rec); err != nil && installErr == nil {
			installErr = fmt.Errorf("engine: recovery: %w", err)
		}
		total++
	}
	for i, c := range db.containers {
		if err := c.wal.Replay(func(rec wal.Record) error {
			maxGid = max(maxGid, rec.GlobalID)
			res.feed(i, &rec)
			res.apply(install)
			return installErr
		}); err != nil {
			return total, err
		}
	}
	presumed := make([][]wal.Record, len(db.containers))
	res.close(func(s int, tid uint64) {
		presumed[s] = append(presumed[s], wal.Record{TID: tid, Kind: wal.KindAbort})
		db.containers[s].domain.ObserveRecoveredAbort(tid)
	})
	res.ready()
	res.apply(install)
	if installErr != nil {
		return total, installErr
	}
	// Tombstone the presumed aborts once replay is over (a log must not grow
	// mid-Replay) and make them durable: one write and one fsync per log.
	for i, tombstones := range presumed {
		if len(tombstones) == 0 {
			continue
		}
		if err := db.containers[i].appendSync(tombstones...); err != nil {
			return total, fmt.Errorf("engine: recovery: tombstoning presumed aborts in container %d: %w", i, err)
		}
	}
	for {
		cur := db.nextTxnID.Load()
		if cur >= maxGid || db.nextTxnID.CompareAndSwap(cur, maxGid) {
			break
		}
	}
	return total, nil
}

// WALStats is a snapshot of one container's write-ahead log activity.
type WALStats struct {
	Container int
	// Enabled reports whether the container has a WAL (DurabilityWAL mode);
	// when false the embedded stats are zero.
	Enabled bool
	wal.Stats
}

// WALStats returns per-container WAL statistics: appended records and bytes,
// physical fsyncs versus absorbed sync requests, and the fsync-latency and
// bytes-per-flush distributions.
func (db *Database) WALStats() []WALStats {
	out := make([]WALStats, 0, len(db.containers))
	for _, c := range db.containers {
		s := WALStats{Container: c.id}
		if c.wal != nil {
			s.Enabled = true
			s.Stats = c.wal.Stats()
		}
		out = append(out, s)
	}
	return out
}
