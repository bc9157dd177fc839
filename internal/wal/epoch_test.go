package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// frameBlob wraps a raw payload in the 4-byte length + 4-byte CRC header the
// checkpoint and epoch blobs share.
func frameBlob(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// TestEpochStateRoundTrip: the durable epoch/term record survives a write and
// read on both storage backends, and overwrites monotonically.
func TestEpochStateRoundTrip(t *testing.T) {
	backends := map[string]Storage{
		"mem":  NewMemStorage(),
		"file": NewFileStorage(t.TempDir()),
	}
	for name, s := range backends {
		t.Run(name, func(t *testing.T) {
			// A node that never saw a failover reads the zero state.
			st, err := ReadEpochState(s)
			if err != nil {
				t.Fatalf("read on fresh storage: %v", err)
			}
			if !reflect.DeepEqual(st, EpochState{}) {
				t.Fatalf("fresh storage epoch state = %+v, want zero", st)
			}
			if err := WriteEpochState(s, EpochState{Epoch: 3, FenceBelow: 3}); err != nil {
				t.Fatalf("write: %v", err)
			}
			st, err = ReadEpochState(s)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if st.Epoch != 3 || st.FenceBelow != 3 {
				t.Fatalf("epoch state = %+v, want {3 3}", st)
			}
			// The supervisor bumps the term in place: overwrite, not append.
			if err := WriteEpochState(s, EpochState{Epoch: 4, FenceBelow: 4}); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			st, err = ReadEpochState(s)
			if err != nil {
				t.Fatalf("re-read: %v", err)
			}
			if st.Epoch != 4 || st.FenceBelow != 4 {
				t.Fatalf("epoch state after overwrite = %+v, want {4 4}", st)
			}
			// A promotion records its cut in the same write, and an overwrite
			// without one drops it.
			withCut := EpochState{Epoch: 5, FenceBelow: 4, Cut: []uint64{0, 7, 1 << 40}}
			if err := WriteEpochState(s, withCut); err != nil {
				t.Fatalf("write with cut: %v", err)
			}
			if st, err = ReadEpochState(s); err != nil || !reflect.DeepEqual(st, withCut) {
				t.Fatalf("epoch state with cut = (%+v, %v), want %+v", st, err, withCut)
			}
			if err := WriteEpochState(s, EpochState{Epoch: 5, FenceBelow: 6}); err != nil {
				t.Fatalf("write without cut: %v", err)
			}
			if st, err = ReadEpochState(s); err != nil || st.Cut != nil {
				t.Fatalf("epoch state after a cut-less overwrite = (%+v, %v), want no cut", st, err)
			}
		})
	}
}

// TestEpochStateTornWriteReadsAsZero: a corrupt blob decodes as the zero
// state, never as an error that would block the node from opening. (A state
// write cut short by a crash leaves the prior state instead, since the
// overwrite is atomic: TestCrashTornEpochStateKeepsPrior in the engine.)
func TestEpochStateTornWriteReadsAsZero(t *testing.T) {
	s := NewMemStorage()
	if err := WriteEpochState(s, EpochState{Epoch: 7, FenceBelow: 7}); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf, err := s.Sub("epoch").ReadCheckpoint(epochStateSeq)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	// Flip a payload byte: the CRC no longer matches.
	torn := append([]byte(nil), buf...)
	torn[len(torn)-1] ^= 0xff
	if err := s.Sub("epoch").WriteCheckpoint(epochStateSeq, torn); err != nil {
		t.Fatalf("write torn blob: %v", err)
	}
	st, err := ReadEpochState(s)
	if err != nil {
		t.Fatalf("read torn state: %v", err)
	}
	if !reflect.DeepEqual(st, EpochState{}) {
		t.Fatalf("torn epoch state = %+v, want zero", st)
	}
}

// TestRecordEpochRoundTrip: every record carries its epoch through encode and
// decode, epoch zero included — the epoch uvarint is always present, so the
// flag bit that once announced it is an unknown flag and decodes as
// corruption.
func TestRecordEpochRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 2, 1 << 40} {
		rec := testRecord(9, 2)
		rec.LSN = 5
		rec.Epoch = epoch
		frame := appendFrame(nil, &rec)
		got, n, err := decodeRecord(frame, 0)
		if err != nil {
			t.Fatalf("epoch %d: decode: %v", epoch, err)
		}
		if n != len(frame) {
			t.Fatalf("epoch %d: decoded %d of %d bytes", epoch, n, len(frame))
		}
		if got.Epoch != epoch || got.LSN != 5 || got.TID != 9 {
			t.Fatalf("epoch %d: decoded = %+v", epoch, got)
		}
	}

	// Epochs 0 and 1 both cost one uvarint byte: one frame shape for all.
	zero := testRecord(9, 1)
	zero.LSN = 1
	stamped := zero
	stamped.Epoch = 1
	zf, sf := appendFrame(nil, &zero), appendFrame(nil, &stamped)
	if len(sf) != len(zf) {
		t.Fatalf("epoch-1 frame is %d bytes, epoch-0 frame %d: the epoch field must always be present", len(sf), len(zf))
	}
	// Bit 3 of the flag byte (after the one-byte LSN and TID uvarints) is
	// unknown: a CRC-valid frame carrying it is corrupt.
	bad := append([]byte(nil), zf...)
	bad[frameHeaderSize+2] |= 1 << 3
	binary.LittleEndian.PutUint32(bad[4:], crc32.ChecksumIEEE(bad[frameHeaderSize:]))
	if _, _, err := decodeRecord(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame with flag bit 3 decoded with %v, want ErrCorrupt", err)
	}
}

// TestLogFenceRejectsAppendAndSync is the zombie-write guard at its lowest
// layer: once a log is fenced below a newer term, both Append and Sync fail
// with ErrFenced, and adopting the newer term (the re-attach path) lifts it.
func TestLogFenceRejectsAppendAndSync(t *testing.T) {
	term := NewTerm(NewMemStorage())
	l, err := Open(NewMemStorage(), Options{Term: term})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("append before fence: %v", err)
	}
	if err := term.Fence(1); err != nil { // a new primary exists at epoch 1; this log still runs at 0
		t.Fatalf("fence: %v", err)
	}
	if !term.Fenced() {
		t.Fatalf("log not fenced after Fence(1)")
	}
	if _, err := l.Append(testRecord(2, 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("append on fenced log = %v, want ErrFenced", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFenced) {
		t.Fatalf("sync on fenced log = %v, want ErrFenced", err)
	}
	// Re-attach stamps the node with the new term; the fence no longer binds.
	if err := term.Promote(1, nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if term.Fenced() {
		t.Fatalf("log still fenced at the fence epoch")
	}
	if _, err := l.Append(testRecord(3, 1)); err != nil {
		t.Fatalf("append after adopting the term: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after adopting the term: %v", err)
	}
	recs := collect(t, l)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (the fenced append left no trace)", len(recs))
	}
	if recs[1].Epoch != 1 {
		t.Fatalf("post-adoption record epoch = %d, want 1", recs[1].Epoch)
	}
}

// TestTailLSNMatchesLastAppend: TailLSN reads the physical tail without
// opening the log, across segment rotations, and reports 0 for empty storage.
func TestTailLSNMatchesLastAppend(t *testing.T) {
	s := NewMemStorage()
	tail, err := TailLSN(s)
	if err != nil || tail != 0 {
		t.Fatalf("tail of empty storage = %d, %v, want 0, nil", tail, err)
	}
	l, err := Open(s, Options{SegmentSize: 64}) // tiny segments force rotation
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 9; i++ {
		if _, err := l.Append(testRecord(i, 1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tail, err = TailLSN(s)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if tail != 9 {
		t.Fatalf("tail = %d, want 9", tail)
	}
}

// TestTruncateAboveUnwindsDivergentSuffix drives the re-attach repair: a
// deposed primary's records beyond the cut are removed — whole segments above
// it deleted, the boundary segment rewritten — and a reopened log continues
// LSNs from the cut, ready to tail the new primary's log.
func TestTruncateAboveUnwindsDivergentSuffix(t *testing.T) {
	s := NewMemStorage()
	l, err := Open(s, Options{SegmentSize: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 9; i++ {
		if _, err := l.Append(testRecord(i, 1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	removed, err := TruncateAbove(s, 4)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if removed != 5 {
		t.Fatalf("removed %d records, want 5", removed)
	}
	tail, err := TailLSN(s)
	if err != nil || tail != 4 {
		t.Fatalf("tail after truncate = %d, %v, want 4, nil", tail, err)
	}

	// The reopened log holds exactly the kept prefix and reuses the freed
	// LSNs for the new timeline's records.
	l2, err := Open(s, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recs := collect(t, l2)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records after truncate, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.TID != uint64(i+1) {
			t.Fatalf("record %d = lsn %d tid %d", i, rec.LSN, rec.TID)
		}
	}
	lsn, err := l2.Append(testRecord(100, 1))
	if err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if lsn != 5 {
		t.Fatalf("first post-truncate LSN = %d, want 5", lsn)
	}
}

// TestTruncateAboveZeroAndNoop: cutting at 0 empties the log entirely;
// cutting at or above the tail removes nothing.
func TestTruncateAboveZeroAndNoop(t *testing.T) {
	s := NewMemStorage()
	l, err := Open(s, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(testRecord(i, 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if removed, err := TruncateAbove(s, 3); err != nil || removed != 0 {
		t.Fatalf("truncate at tail removed %d, %v, want 0, nil", removed, err)
	}
	if removed, err := TruncateAbove(s, 0); err != nil || removed != 3 {
		t.Fatalf("truncate at 0 removed %d, %v, want 3, nil", removed, err)
	}
	indexes, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(indexes) != 0 {
		t.Fatalf("%d segments survive a truncate-to-zero, want 0", len(indexes))
	}
}

// TestWipeLogClearsSegmentsAndBlobs: the bootstrap-from-scratch fallback
// leaves nothing behind — neither log segments nor checkpoint blobs.
func TestWipeLogClearsSegmentsAndBlobs(t *testing.T) {
	s := NewMemStorage()
	l, err := Open(s, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.WriteCheckpoint(1, EncodeCheckpoint(&Checkpoint{Seq: 1, LowLSN: 1})); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	if err := WipeLog(s); err != nil {
		t.Fatalf("wipe: %v", err)
	}
	indexes, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	seqs, err := s.ListCheckpoints()
	if err != nil {
		t.Fatalf("list checkpoints: %v", err)
	}
	if len(indexes) != 0 || len(seqs) != 0 {
		t.Fatalf("wipe left %d segments, %d checkpoints", len(indexes), len(seqs))
	}
}

// TestCheckpointVersionCompatibility: the writer emits version 2 and
// round-trips HighLSN; a blob of any other version — including a well-formed,
// CRC-valid version-1 frame, the pre-failover layout without HighLSN that no
// stored data uses — is ErrCorrupt, so LatestCheckpoint skips it and falls back
// to an older blob exactly as for a torn one.
func TestCheckpointVersionCompatibility(t *testing.T) {
	cp := &Checkpoint{Seq: 4, LowLSN: 17, MaxTID: 99, MaxGlobalID: 12, HighLSN: 23,
		Rows: []CheckpointRow{{Key: "k", TID: 9, Data: []byte("v")}}}
	v2 := EncodeCheckpoint(cp)
	got, err := DecodeCheckpoint(v2)
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	if got.HighLSN != 23 || got.Seq != 4 || got.LowLSN != 17 {
		t.Fatalf("v2 roundtrip = %+v", got)
	}

	// Hand-build the v1 frame: same layout minus the HighLSN uvarint, which
	// follows the version byte, Seq, LowLSN, MaxTID and MaxGlobalID.
	payload := append([]byte(nil), v2[frameHeaderSize:]...)
	payload[0] = 1
	p := payload[1:]
	for i := 0; i < 4; i++ {
		if _, p, err = readUvarint(p); err != nil {
			t.Fatalf("walk v2 payload: %v", err)
		}
	}
	highStart := len(payload) - len(p)
	_, rest, err := readUvarint(p)
	if err != nil {
		t.Fatalf("read HighLSN: %v", err)
	}
	v1 := frameBlob(append(payload[:highStart:highStart], rest...))
	future := append([]byte(nil), v2[frameHeaderSize:]...)
	future[0] = checkpointVersion + 1
	for name, blob := range map[string][]byte{"v1": v1, "v3": frameBlob(future)} {
		if cp, err := DecodeCheckpoint(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode %s = (%+v, %v), want ErrCorrupt", name, cp, err)
		}
	}

	s := NewMemStorage()
	if err := s.WriteCheckpoint(4, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(5, v1); err != nil {
		t.Fatal(err)
	}
	latest, skipped, err := LatestCheckpoint(s)
	if err != nil || latest == nil || latest.Seq != 4 || skipped != 1 {
		t.Fatalf("LatestCheckpoint = (%+v, %d, %v), want the v2 blob with one skipped", latest, skipped, err)
	}
}
