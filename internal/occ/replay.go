package occ

import (
	"reactdb/internal/kv"
)

// ApplyShippedWrite installs one committed write taken from a log: the hook
// of both WAL replay and a replica's apply. The write is applied only if its
// TID is newer than the record's current version, so a log whose append order
// differs slightly from TID order (group-commit batches interleaved with
// two-phase commit participants) converges on the newest version of every
// key. guard, when non-nil, is the structural guard of the record's table; it
// is bumped when the install materializes or deletes a row so later scans
// validate against the new structure.
//
// Recovery runs before the database serves transactions; a replica applies
// against a live domain that is concurrently serving read-only transactions.
// The record latch and the structural guard make both safe: a reader that
// observed a version this install replaces fails its OCC validation and
// retries. It reports whether the write was installed; false means the record
// already held this version or a newer one (the re-shipped overlap after a
// replica restart, or a group participant applied out of batch order).
func (d *Domain) ApplyShippedWrite(rec *kv.Record, guard ScanGuard, tid uint64, data []byte, deleted bool) bool {
	return install(rec, guard, tid, data, deleted, false)
}

// InstallCheckpointRow installs one checkpoint-captured row into a record:
// the recovery fast path's counterpart to ApplyShippedWrite. Checkpoints
// capture loader-populated base rows too, which carry TID 0 — a version the
// log hook's strict newer-than check would refuse to install — so an absent
// (freshly indexed) record accepts any TID, including 0. A present record
// keeps the newer version, making the hook idempotent against rows the log
// suffix already re-applied. deleted installs a checkpoint tombstone: the row
// was removed by a transaction the checkpoint absorbed (its delete record may
// be truncated), so the record must end up absent even if a re-run loader
// repopulated it before Recover.
func (d *Domain) InstallCheckpointRow(rec *kv.Record, guard ScanGuard, tid uint64, data []byte, deleted bool) {
	install(rec, guard, tid, data, deleted, true)
}

// install is the one body behind both hooks; they differ only in the accept
// rule. A logged write is stale when the record holds its TID or a newer one;
// a checkpoint row is stale only when, in addition, the record is present and
// the row's TID is not 0.
func install(rec *kv.Record, guard ScanGuard, tid uint64, data []byte, deleted, checkpointRow bool) bool {
	maintainer, maintain := guard.(IndexMaintainer)
	rec.Lock()
	stale := tid <= rec.TID()
	if checkpointRow {
		stale = stale && !rec.Absent() && tid > 0
	}
	if stale {
		rec.Unlock()
		return false
	}
	oldData := rec.Data()
	oldPresent := !rec.Absent()
	structural := rec.Absent() || deleted
	if !deleted {
		rec.SetData(data)
	}
	rec.UnlockWithTID(tid, deleted)
	if guard != nil && (structural || maintain) {
		guard.LockStructure()
		if maintain && maintainer.ApplyIndexWrite(oldData, oldPresent, data, deleted) {
			structural = true
		}
		if structural {
			guard.BumpVersion()
		}
		guard.UnlockStructure()
	}
	return true
}

// TIDWatermark returns a TID strictly greater than every TID this domain has
// issued so far: the next epoch's floor. The checkpointer stamps it into the
// checkpoint (Checkpoint.MaxTID) so recovery can advance the domain past all
// captured history — including versions the snapshot itself forgets, such as
// the TIDs of deleted rows — via ObserveRecoveredTID.
func (d *Domain) TIDWatermark() uint64 {
	return (d.epoch.Load() + 1) << epochBits
}

// ObserveRecoveredAbort retracts a prepared-but-undecided transaction found
// during WAL replay and resolved by presumed abort: nothing is applied (its
// writes were staged in the log but never installed), the domain's abort
// counter reflects the resolution, and the epoch advances past the
// transaction's pre-assigned TID exactly as for replayed commits — so a TID
// carried by a recovery tombstone can never be generated again and
// accidentally retract a future record.
func (d *Domain) ObserveRecoveredAbort(tid uint64) {
	d.aborted.Add(1)
	d.ObserveRecoveredTID(tid)
}

// ObserveRecoveredTID advances the domain's epoch past a replayed TID so that
// every TID generated after recovery is strictly greater than every recovered
// one, preserving Silo's monotonicity invariant across restarts.
func (d *Domain) ObserveRecoveredTID(tid uint64) {
	want := (tid >> epochBits) + 1
	for {
		cur := d.epoch.Load()
		if cur >= want || d.epoch.CompareAndSwap(cur, want) {
			return
		}
	}
}
