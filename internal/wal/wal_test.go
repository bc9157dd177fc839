package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testRecord(tid uint64, n int) Record {
	rec := Record{TID: tid}
	for i := 0; i < n; i++ {
		rec.Writes = append(rec.Writes, Write{
			Key:  fmt.Sprintf("reactor\x00rel\x00key-%d-%d", tid, i),
			Data: []byte(fmt.Sprintf("row-%d-%d", tid, i)),
		})
	}
	return rec
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendSyncReplayRoundtrip(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := []Record{testRecord(10, 2), testRecord(11, 1), {TID: 12, Writes: []Write{{Key: "k", Delete: true}}}}
	last, err := l.AppendBatch(want[:2])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if last != 2 {
		t.Fatalf("last LSN = %d, want 2", last)
	}
	if _, err := l.Append(want[2]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, l)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, rec.LSN, i+1)
		}
		if rec.TID != want[i].TID || len(rec.Writes) != len(want[i].Writes) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
		for j, w := range rec.Writes {
			ww := want[i].Writes[j]
			if w.Key != ww.Key || string(w.Data) != string(ww.Data) || w.Delete != ww.Delete {
				t.Fatalf("record %d write %d = %+v, want %+v", i, j, w, ww)
			}
		}
	}
}

func TestSyncAbsorption(t *testing.T) {
	l, err := Open(NewMemStorage(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Nothing new appended: this sync must be absorbed, not hit storage.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s := l.Stats()
	if s.Fsyncs != 1 || s.SyncsAbsorbed != 1 {
		t.Fatalf("fsyncs=%d absorbed=%d, want 1 and 1", s.Fsyncs, s.SyncsAbsorbed)
	}
	if l.DurableLSN() != l.LastLSN() {
		t.Fatalf("durable %d != last %d", l.DurableLSN(), l.LastLSN())
	}
}

func TestSegmentRotationAndReopenContinuesLSNs(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(uint64(100+i), 2)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync %d: %v", i, err)
		}
	}
	if s := l.Stats(); s.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have happened", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(st, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := collect(t, l2); len(got) != n {
		t.Fatalf("replayed %d records after reopen, want %d", len(got), n)
	}
	if last, err := l2.Append(testRecord(999, 1)); err != nil || last != n+1 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", last, err, n+1)
	}
}

// TestRotationTriggeringAppendSurvivesCrash: when an append overflows the
// active segment, rotation fsyncs the *old* segment; the new batch's bytes
// land in the fresh segment and the caller's Sync must still fsync them —
// the durable watermark must not be advanced past unwritten LSNs by the
// rotation, or the Sync is absorbed and the acknowledged commit is lost on
// a machine crash.
func TestRotationTriggeringAppendSurvivesCrash(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 2)); err != nil { // fills most of segment 0
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, err := l.Append(testRecord(2, 2)); err != nil { // overflows: rotates
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil { // must fsync the fresh segment
		t.Fatalf("Sync: %v", err)
	}
	if s := l.Stats(); s.Segments < 2 {
		t.Fatalf("segments = %d, want a rotation to have happened", s.Segments)
	}

	got := collect(t, Open2(t, st.CrashCopy()))
	if len(got) != 2 {
		tids := make([]uint64, len(got))
		for i, r := range got {
			tids[i] = r.TID
		}
		t.Fatalf("replayed TIDs %v after crash, want [1 2]: rotation absorbed the commit's fsync", tids)
	}
}

func TestCrashCopyDropsUnsyncedTail(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Appended but never synced: must not survive the crash.
	if _, err := l.Append(testRecord(2, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}

	crashed := st.CrashCopy()
	l2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	got := collect(t, l2)
	if len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("replayed %d records (first TID %d), want only the synced one", len(got), got[0].TID)
	}
}

func TestFailedSyncLeavesRecordsNonDurable(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	injected := errors.New("disk on fire")
	st.FailSyncs(injected)
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync error = %v, want injected failure", err)
	}
	if l.DurableLSN() != 0 {
		t.Fatalf("DurableLSN = %d after failed sync, want 0", l.DurableLSN())
	}
	got := collect(t, Open2(t, st.CrashCopy()))
	if len(got) != 0 {
		t.Fatalf("replayed %d records after failed sync + crash, want 0", len(got))
	}
}

func Open2(t *testing.T, st Storage) *Log {
	t.Helper()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestFileStorageTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := NewFileStorage(dir)
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testRecord(uint64(i+1), 2)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the last record: truncate the segment mid-frame.
	segs, err := st.List()
	if err != nil || len(segs) == 0 {
		t.Fatalf("List: %v (%d segments)", err, len(segs))
	}
	path := filepath.Join(dir, fmt.Sprintf("%016d.wal", segs[len(segs)-1]))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := collect(t, l2)
	if len(got) != 2 {
		t.Fatalf("replayed %d records from torn log, want 2", len(got))
	}
	if got[len(got)-1].TID != 2 {
		t.Fatalf("last replayed TID = %d, want 2", got[len(got)-1].TID)
	}
}

// TestReplayContinuesPastTornTailOfEarlierSegment covers the double-crash
// case: crash 1 leaves a torn tail in segment k; the restarted process opens
// segment k+1 and acknowledges new durable commits there; crash 2. Replay
// must skip the torn suffix of segment k but still deliver everything in
// k+1 — stopping the whole iteration would silently drop acknowledged
// commits.
func TestReplayContinuesPastTornTailOfEarlierSegment(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Appended, never synced: crash 1 tears this off.
	if _, err := l.Append(testRecord(2, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	crashed := st.CrashCopy()

	// Second incarnation: new active segment, new acknowledged commit.
	l2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	lsn, err := l2.Append(testRecord(3, 1))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("post-crash LSN = %d, want 2 (the torn record's LSN is reusable)", lsn)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Crash 2 and recover: both acknowledged records must replay.
	l3 := Open2(t, crashed.CrashCopy())
	got := collect(t, l3)
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 3 {
		tids := make([]uint64, len(got))
		for i, r := range got {
			tids[i] = r.TID
		}
		t.Fatalf("replayed TIDs %v, want [1 3]", tids)
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testRecord(2, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Flip a payload byte of the second record.
	segs, _ := st.List()
	buf, err := st.ReadSegment(segs[0])
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	_, firstEnd, err := decodeRecord(buf, 0)
	if err != nil {
		t.Fatalf("decode first: %v", err)
	}
	key := fmt.Sprintf("/%016d", segs[0])
	st.root.mu.Lock()
	st.root.segs[key].buf[firstEnd+frameHeaderSize+2] ^= 0xff
	st.root.mu.Unlock()

	got := collect(t, Open2(t, st))
	if len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(got))
	}
}

// TestFailedWriteWedgesLog: a failed segment write can leave a torn partial
// frame at the tail; appending past it would strand later fsynced records
// behind a CRC failure at replay, so the log must refuse all further work.
func TestFailedWriteWedgesLog(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	injected := errors.New("disk full")
	st.FailWrites(injected)
	if _, err := l.Append(testRecord(2, 1)); !errors.Is(err, injected) {
		t.Fatalf("Append during write failure = %v, want injected error", err)
	}
	st.FailWrites(nil)
	// The tail is torn: both append and sync must stay wedged.
	if _, err := l.Append(testRecord(3, 1)); !errors.Is(err, injected) {
		t.Fatalf("Append after torn write = %v, want wedged log", err)
	}
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync after torn write = %v, want wedged log", err)
	}

	// Recovery on a fresh Log cuts the torn tail and resumes cleanly.
	l2 := Open2(t, st)
	got := collect(t, l2)
	if len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("replayed %d records after wedge, want the 1 durable one", len(got))
	}
	if _, err := l2.Append(testRecord(4, 1)); err != nil {
		t.Fatalf("Append on recovered log: %v", err)
	}
}

// TestTransientWriteFailureIsSalvagedByRetraction: when a batch write fails
// but the storage recovers (transient error), the log seals the damaged
// segment, retracts the whole batch on a fresh one, and keeps serving — and
// any complete leading frame the failed write left behind can never be
// replayed as committed.
func TestTransientWriteFailureIsSalvagedByRetraction(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	injected := errors.New("transient disk error")
	st.FailNextWrite(injected)
	// A multi-record batch: the half-write may leave the first record's
	// frame fully intact in the damaged segment.
	batch := []Record{testRecord(2, 1), testRecord(3, 1)}
	if _, err := l.AppendBatch(batch); !errors.Is(err, injected) {
		t.Fatalf("AppendBatch = %v, want injected error", err)
	}
	// Salvaged: the log is not wedged and keeps accepting appends.
	if _, err := l.Append(testRecord(4, 1)); err != nil {
		t.Fatalf("Append after salvage: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after salvage: %v", err)
	}

	got := collect(t, Open2(t, st))
	tids := make([]uint64, 0, len(got))
	for _, rec := range got {
		tids = append(tids, rec.TID)
	}
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 4 {
		t.Fatalf("replayed TIDs %v, want [1 4]: the failed batch must be retracted", tids)
	}
}

// TestIdleReopenCreatesNoSegments: restarts without appends must not
// accumulate empty segment files.
func TestIdleReopenCreatesNoSegments(t *testing.T) {
	st := NewMemStorage()
	for i := 0; i < 5; i++ {
		l, err := Open(st, Options{})
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
	}
	segs, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segs) != 0 {
		t.Fatalf("%d empty segments accumulated across idle restarts, want 0", len(segs))
	}
}

// TestCoverContinuesAboveCheckpoint: a log raised past a checkpoint it never
// held forces its unsynced tail, appends above the checkpoint and survives a
// crash with both; covering below its last LSN changes nothing.
func TestCoverContinuesAboveCheckpoint(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(testRecord(uint64(1+i), 1)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Cover(10); err != nil {
		t.Fatalf("Cover: %v", err)
	}
	if err := l.Cover(5); err != nil {
		t.Fatalf("Cover below: %v", err)
	}
	if l.LastLSN() != 10 || l.DurableLSN() != 10 {
		t.Fatalf("after Cover(10): last %d, durable %d; want 10, 10", l.LastLSN(), l.DurableLSN())
	}
	if lsn, err := l.Append(testRecord(3, 1)); err != nil || lsn != 11 {
		t.Fatalf("append after Cover: lsn=%d err=%v, want 11", lsn, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var lsns []uint64
	for _, rec := range collect(t, Open2(t, st.CrashCopy())) {
		lsns = append(lsns, rec.LSN)
	}
	if fmt.Sprint(lsns) != "[1 2 11]" {
		t.Fatalf("crash copy replays LSNs %v, want [1 2 11]", lsns)
	}
}

// TestOpenMakesInheritedTailDurable: a predecessor killed before its fsync
// leaves appended-but-unsynced bytes behind (page cache survives process
// death). Open must fsync them before treating the records as durable, or a
// later machine crash could erase records that post-restart commits build on.
func TestOpenMakesInheritedTailDurable(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Process dies before fsync: bytes present, not durable.

	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("reopen replayed %d records, want 1", len(got))
	}
	// A machine crash after the reopen must not lose the inherited record.
	l3 := Open2(t, st.CrashCopy())
	if got := collect(t, l3); len(got) != 1 {
		t.Fatalf("inherited record lost on crash: replayed %d, want 1 (Open did not fsync the tail)", len(got))
	}
}

// TestAbortRecordRetractsCommitRecord: an abort record appended after a
// commit record (2PC failed after this log received the commit) keeps replay
// from resurrecting the transaction, even though the commit record itself is
// durable.
func TestAbortRecordRetractsCommitRecord(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 64}) // force the abort into a later segment
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testRecord(2, 2)); err != nil { // the doomed 2PC participant record
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testRecord(3, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(Record{TID: 2, Kind: KindAbort}); err != nil {
		t.Fatalf("Append abort: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	got := collect(t, Open2(t, st))
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (TID 2 retracted)", len(got))
	}
	for _, rec := range got {
		if rec.TID == 2 {
			t.Fatal("retracted transaction resurfaced in replay")
		}
	}
}

// TestAbortRecordOnlyRetractsEarlierLSNs: per-epoch sequence numbers restart
// across incarnations, so a later acknowledged commit can legitimately reuse
// a TID that an old abort record retracted. Retraction is LSN-ordered: the
// abort must not swallow the newer commit.
func TestAbortRecordOnlyRetractsEarlierLSNs(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const reusedTID = 42
	if _, err := l.Append(testRecord(reusedTID, 1)); err != nil { // LSN 1: the doomed commit
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(Record{TID: reusedTID, Kind: KindAbort}); err != nil { // LSN 2: its retraction
		t.Fatalf("Append abort: %v", err)
	}
	if _, err := l.Append(testRecord(reusedTID, 2)); err != nil { // LSN 3: a NEW txn reusing the TID
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, Open2(t, st))
	if len(got) != 1 || got[0].LSN != 3 || len(got[0].Writes) != 2 {
		t.Fatalf("replayed %+v, want only the newer commit (LSN 3)", got)
	}
}

func TestByteSlicesAreCopiedOnDecode(t *testing.T) {
	var buf []byte
	rec := testRecord(7, 1)
	buf = appendFrame(buf, &rec)
	got, _, err := decodeRecord(buf, 0)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	buf[len(buf)-1] ^= 0xff // mutate the source buffer
	if string(got.Writes[0].Data) != string(rec.Writes[0].Data) {
		t.Fatal("decoded data aliases the source buffer")
	}
}

// TestPrepareAndDecisionRecordsRoundTripThroughReplay appends the 2PC record
// kinds and checks that Replay surfaces them with kinds, global ids and
// participant sets intact — resolving them is the engine's job.
func TestPrepareAndDecisionRecordsRoundTripThroughReplay(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	prep := Record{TID: 5, Kind: KindPrepare, GlobalID: 99, Coordinator: 2,
		Writes: []Write{{Key: "r\x00t\x00k", Data: []byte("v")}}}
	if _, err := l.Append(prep); err != nil {
		t.Fatalf("Append prepare: %v", err)
	}
	dec := Record{TID: 5, Kind: KindDecision, GlobalID: 99, Participants: []uint64{0, 2}}
	if _, err := l.Append(dec); err != nil {
		t.Fatalf("Append decision: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, Open2(t, st))
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	if got[0].Kind != KindPrepare || got[0].GlobalID != 99 || got[0].Coordinator != 2 ||
		len(got[0].Writes) != 1 || got[0].Writes[0].Key != "r\x00t\x00k" {
		t.Fatalf("prepare record mangled: %+v", got[0])
	}
	if got[1].Kind != KindDecision || got[1].GlobalID != 99 ||
		len(got[1].Participants) != 2 || got[1].Participants[0] != 0 || got[1].Participants[1] != 2 {
		t.Fatalf("decision record mangled: %+v", got[1])
	}
}

// TestAbortRecordRetractsPrepareAndDecision: the retraction mechanism is
// kind-agnostic — an abort record with a matching TID retracts an earlier
// prepare record (failed 2PC, or a recovery tombstone) and an earlier
// decision record (failed decision batch salvage) alike.
func TestAbortRecordRetractsPrepareAndDecision(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := []Record{
		{TID: 5, Kind: KindPrepare, GlobalID: 99, Writes: []Write{{Key: "r\x00t\x00k", Data: []byte("v")}}},
		{TID: 6, Kind: KindDecision, GlobalID: 98, Participants: []uint64{0, 1}},
		{TID: 5, Kind: KindAbort},
		{TID: 6, Kind: KindAbort},
	}
	for i := range recs {
		if _, err := l.Append(recs[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := collect(t, Open2(t, st)); len(got) != 0 {
		t.Fatalf("replayed %d records, want everything retracted: %+v", len(got), got)
	}
}

// TestDecodeRejectsStructuralCorruption: strict decoding — unknown or
// conflicting flag bits and trailing payload bytes are ErrCorrupt, never
// silently ignored (a silent mis-decode would let a corrupted frame replay
// as a different transaction).
func TestDecodeRejectsStructuralCorruption(t *testing.T) {
	base := Record{LSN: 1, TID: 2, Kind: KindPrepare, GlobalID: 3, Coordinator: 0,
		Writes: []Write{{Key: "k", Data: []byte("v")}}}
	frame := appendFrame(nil, &base)

	mutate := func(name string, f func([]byte) []byte) {
		buf := f(append([]byte(nil), frame...))
		// Re-seal the CRC so only the structural check can reject it.
		payload := buf[frameHeaderSize:]
		binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
		if _, _, err := decodeRecord(buf, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	flagOff := frameHeaderSize + 2 // uvarint LSN (1 byte) + uvarint TID (1 byte)
	mutate("unknown flag bit", func(b []byte) []byte { b[flagOff] |= 0x80; return b })
	mutate("conflicting kind bits", func(b []byte) []byte { b[flagOff] |= flagAbort; return b })
	mutate("trailing bytes", func(b []byte) []byte { return append(b, 0xEE) })
}

// TestLogWatermarksDoNotWaitOutFsync holds an fsync inside the storage: the
// watermark reads and a sync that an earlier fsync already covers return at
// once, while a sync of the held records waits for it. An absorbed sync still
// fails on a fenced log, and on a closed one.
func TestLogWatermarksDoNotWaitOutFsync(t *testing.T) {
	mem := NewMemStorage()
	term := NewTerm(NewMemStorage())
	l, err := Open(mem, Options{Term: term})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	gate := make(chan struct{})
	mem.GateSyncs(gate)
	if _, err := l.Append(testRecord(2, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	started := mem.SyncsStarted()
	held := make(chan error, 1)
	go func() { held <- l.Sync() }()
	for mem.SyncsStarted() == started {
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := l.DurableLSN(); got != 1 {
			t.Errorf("DurableLSN during the held fsync = %d, want 1", got)
		}
		if got := l.LastLSN(); got != 2 {
			t.Errorf("LastLSN during the held fsync = %d, want 2", got)
		}
		if err := l.SyncThrough(1); err != nil {
			t.Errorf("SyncThrough(1) during the held fsync: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a watermark read or an absorbed sync waited out the held fsync")
	}
	select {
	case err := <-held:
		t.Fatalf("the held sync returned (%v) before its fsync was released", err)
	default:
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("held sync: %v", err)
	}
	if got := l.DurableLSN(); got != 2 {
		t.Fatalf("DurableLSN after the fsync = %d, want 2", got)
	}

	// Nothing new is appended, so these syncs take the absorbed path.
	if err := term.Fence(1); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFenced) {
		t.Fatalf("absorbed sync on a fenced log = %v, want ErrFenced", err)
	}
	if err := term.Promote(1, nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("absorbed sync after adopting the term: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("absorbed sync on a closed log succeeded")
	}
}

// TestWatchWakesOncePerFsync: a watcher gets one wake-up per physical fsync
// — a sync, a rotation, a failed append's retraction and Close included — and
// none for a sync an earlier fsync absorbed. A full channel never holds up an
// fsync, and Unwatch returns while an fsync is held.
func TestWatchWakesOncePerFsync(t *testing.T) {
	mem := NewMemStorage()
	l, err := Open(mem, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ch := make(chan struct{}, 8) // room for every wake-up a step sends: none is dropped
	l.Watch(ch)
	fsyncs := uint64(0)
	// step runs do and checks that it issued wantFsyncs fsyncs and sent ch
	// wantWakes wake-ups.
	step := func(what string, wantFsyncs, wantWakes int, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		now := l.Stats().Fsyncs
		if got := int(now - fsyncs); got != wantFsyncs {
			t.Fatalf("%s issued %d fsyncs, want %d", what, got, wantFsyncs)
		}
		if len(ch) != wantWakes {
			t.Fatalf("%s sent %d wake-ups, want %d", what, len(ch), wantWakes)
		}
		fsyncs = now
		for len(ch) > 0 {
			<-ch
		}
	}
	appendSync := func(tid uint64) func() error {
		return func() error {
			if _, err := l.Append(testRecord(tid, 1)); err != nil {
				return err
			}
			return l.Sync()
		}
	}

	step("append and sync", 1, 1, appendSync(1))
	step("absorbed syncs", 0, 0, func() error {
		if err := l.Sync(); err != nil {
			return err
		}
		return l.SyncThrough(l.DurableLSN())
	})
	step("rotation", 2, 2, func() error {
		if _, err := l.Append(testRecord(2, 1)); err != nil {
			return err
		}
		// This record does not fit the segment: the append seals it with an
		// fsync of its own, and the sync covers the new segment.
		if _, err := l.Append(testRecord(3, 8)); err != nil {
			return err
		}
		return l.Sync()
	})
	step("failed append's retraction", 1, 1, func() error {
		injected := errors.New("transient disk error")
		mem.FailNextWrite(injected)
		if _, err := l.Append(testRecord(4, 1)); !errors.Is(err, injected) {
			return fmt.Errorf("append = %v, want the injected error", err)
		}
		return nil
	})

	full := make(chan struct{}, 1)
	full <- struct{}{}
	l.Watch(full)
	done := make(chan error, 1)
	go func() { done <- appendSync(5)() }()
	select {
	case err := <-done:
		step("sync with a full watcher", 1, 1, func() error { return err })
	case <-time.After(5 * time.Second):
		t.Fatal("an fsync blocked on a full watcher channel")
	}

	gate := make(chan struct{})
	mem.GateSyncs(gate)
	if _, err := l.Append(testRecord(6, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	started := mem.SyncsStarted()
	held := make(chan error, 1)
	go func() { held <- l.Sync() }()
	for mem.SyncsStarted() == started {
		time.Sleep(time.Millisecond)
	}
	unwatched := make(chan struct{})
	go func() {
		l.Unwatch(ch)
		close(unwatched)
	}()
	select {
	case <-unwatched:
	case <-time.After(5 * time.Second):
		t.Fatal("Unwatch waited out the held fsync")
	}
	close(gate)
	step("sync after Unwatch", 1, 0, func() error { return <-held })

	l.Watch(ch)
	if _, err := l.Append(testRecord(7, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	step("close", 1, 1, l.Close)
}
