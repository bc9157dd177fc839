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
// for RestoredRows). A replica's database refuses with ErrReplicaRead: it
// loads at OpenReplica and finishes at PromoteReplica.
func (db *Database) Recover() (int, error) {
	if db.cfg.Durability.Mode != DurabilityWAL {
		return 0, nil
	}
	if db.replica.Load() {
		return 0, ErrReplicaRead
	}
	res := newResolver(len(db.containers))
	_, loaded, err := db.load(res)
	if err != nil {
		return loaded, err
	}
	finished, err := db.finish(res)
	return loaded + finished, err
}

// load is recovery's read half, shared by Recover and a replica opening over
// its mirror: each container's newest valid checkpoint is installed and sets
// its floor (and global-id watermark) in res, then each log is replayed into
// res once, installing whatever settles as it goes. It reports which
// containers installed a checkpoint and how many records it installed.
func (db *Database) load(res *resolver) (blobs []bool, installed int, err error) {
	blobs = make([]bool, len(db.containers))
	floors := make([]uint64, len(db.containers))
	for i, c := range db.containers {
		cp, skipped, err := wal.LatestCheckpoint(c.walStorage)
		if err != nil {
			return nil, 0, err
		}
		c.ckptMu.Lock()
		c.ckptStats.corruptSkipped = skipped
		c.ckptMu.Unlock()
		if cp == nil {
			continue
		}
		if err := c.installCheckpoint(cp); err != nil {
			return nil, 0, err
		}
		blobs[i], floors[i] = true, cp.LowLSN
		res.maxGid = max(res.maxGid, cp.MaxGlobalID)
	}
	res.setFloors(floors)
	for i, c := range db.containers {
		if err := c.wal.Replay(func(rec wal.Record) error {
			res.feed(i, &rec)
			n, err := db.installSettled(res)
			installed += n
			return err
		}); err != nil {
			return nil, installed, err
		}
	}
	return blobs, installed, nil
}

// finish is recovery's write half, run once every log is fed into res: each
// incomplete group is presumed aborted, what settles is installed under the
// commit gate (a promoted replica serves reads meanwhile), the presumed
// aborts are tombstoned durably — one write and one fsync per log — and the
// transaction id sequence moves past every global id res has seen.
func (db *Database) finish(res *resolver) (int, error) {
	presumed := make([][]wal.Record, len(db.containers))
	res.close(func(s int, tid uint64) {
		presumed[s] = append(presumed[s], wal.Record{TID: tid, Kind: wal.KindAbort})
		db.containers[s].domain.ObserveRecoveredAbort(tid)
	})
	db.commitGate.Lock()
	res.ready()
	installed, err := db.installSettled(res)
	db.commitGate.Unlock()
	if err != nil {
		return installed, err
	}
	for i, tombstones := range presumed {
		if len(tombstones) == 0 {
			continue
		}
		if err := db.containers[i].appendSync(tombstones...); err != nil {
			return installed, fmt.Errorf("engine: recovery: tombstoning presumed aborts in container %d: %w", i, err)
		}
	}
	for {
		cur := db.nextTxnID.Load()
		if cur >= res.maxGid || db.nextTxnID.CompareAndSwap(cur, res.maxGid) {
			return installed, nil
		}
	}
}

// installSettled installs every record res has settled — what recovery does
// with a replayed record and a replica with a shipped one — and reports how
// many and the first error.
func (db *Database) installSettled(res *resolver) (n int, err error) {
	n = res.apply(func(s int, rec *wal.Record) {
		if ierr := db.containers[s].installRecord(rec); ierr != nil && err == nil {
			err = fmt.Errorf("engine: install: %w", ierr)
		}
	})
	return n, err
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
