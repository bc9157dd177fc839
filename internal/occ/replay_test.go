package occ

import (
	"testing"

	"reactdb/internal/kv"
)

// guardStub satisfies ScanGuard and counts version bumps.
type guardStub struct {
	version uint64
	locked  bool
}

func (g *guardStub) Version() uint64        { return g.version }
func (g *guardStub) BumpVersion()           { g.version++ }
func (g *guardStub) LockStructure()         { g.locked = true }
func (g *guardStub) TryLockStructure() bool { return true }
func (g *guardStub) UnlockStructure()       { g.locked = false }

func TestApplyReplayedWriteInstallsNewerVersions(t *testing.T) {
	d := NewDomain("replay")
	g := &guardStub{}

	rec := kv.NewRecord() // absent: the row exists only in the log
	d.ApplyShippedWrite(rec, g, 100, []byte("v1"), false)
	data, tid, present := rec.StableRead()
	if !present || string(data) != "v1" || tid != 100 {
		t.Fatalf("after replay: data=%q tid=%d present=%v", data, tid, present)
	}
	if g.version != 1 {
		t.Fatalf("materializing a row must bump the structural version, got %d", g.version)
	}

	// An older TID must not overwrite a newer installed version.
	d.ApplyShippedWrite(rec, g, 50, []byte("stale"), false)
	if data, _, _ := rec.StableRead(); string(data) != "v1" {
		t.Fatalf("stale replay overwrote newer version: %q", data)
	}

	// A newer update replaces data without a structural bump.
	d.ApplyShippedWrite(rec, g, 200, []byte("v2"), false)
	if data, tid, _ := rec.StableRead(); string(data) != "v2" || tid != 200 {
		t.Fatalf("newer replay not applied: data=%q tid=%d", data, tid)
	}
	if g.version != 1 {
		t.Fatalf("plain update must not bump structure, got %d", g.version)
	}

	// A replayed delete hides the row and bumps structure.
	d.ApplyShippedWrite(rec, g, 300, nil, true)
	if _, _, present := rec.StableRead(); present {
		t.Fatal("replayed delete left the row visible")
	}
	if g.version != 2 {
		t.Fatalf("delete must bump structure, got %d", g.version)
	}
}

func TestObserveRecoveredTIDKeepsTIDsMonotonic(t *testing.T) {
	d := NewDomain("replay-tids")
	recovered := uint64(7)<<epochBits | 12345
	d.ObserveRecoveredTID(recovered)
	tid := d.nextTID(0)
	if tid <= recovered {
		t.Fatalf("nextTID %d not greater than recovered %d", tid, recovered)
	}
}

func TestPreparedWritesAndAssignTIDDriveTheDurabilityHook(t *testing.T) {
	d := NewDomain("prepared-writes")
	rec := kv.NewCommittedRecord(encInt(1), 0)
	txn := d.Begin()
	if err := txn.Write(rec, []byte("r\x00t\x00k"), encInt(42), nil); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Before prepare, neither hook is available.
	calls := 0
	txn.PreparedWrites(func([]byte, []byte, bool) { calls++ })
	if calls != 0 {
		t.Fatalf("PreparedWrites on active txn visited %d writes, want 0", calls)
	}
	if _, err := txn.AssignTID(); err == nil {
		t.Fatal("AssignTID on active txn must fail")
	}

	if err := txn.Prepare(); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	tid, err := txn.AssignTID()
	if err != nil || tid == 0 {
		t.Fatalf("AssignTID = (%d, %v)", tid, err)
	}
	if again, _ := txn.AssignTID(); again != tid {
		t.Fatalf("AssignTID not stable: %d then %d", tid, again)
	}
	txn.PreparedWrites(func(key []byte, data []byte, deleted bool) {
		calls++
		if string(key) != "r\x00t\x00k" || decInt(data) != 42 || deleted {
			t.Fatalf("unexpected write: key=%q data=%d deleted=%v", key, decInt(data), deleted)
		}
	})
	if calls != 1 {
		t.Fatalf("PreparedWrites visited %d writes, want 1", calls)
	}

	// The write phase must install under the pre-assigned TID.
	installed, err := txn.CommitPrepared()
	if err != nil {
		t.Fatalf("CommitPrepared: %v", err)
	}
	if installed != tid || txn.TID() != tid {
		t.Fatalf("CommitPrepared installed TID %d (accessor %d), want pre-assigned %d", installed, txn.TID(), tid)
	}
	if _, recTID, _ := rec.StableRead(); recTID != tid {
		t.Fatalf("record TID %d, want %d", recTID, tid)
	}
}
