package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Seq:         3,
		LowLSN:      41,
		MaxTID:      1 << 41,
		MaxGlobalID: 17,
		Rows: []CheckpointRow{
			{Key: "r\x00t\x00k1", TID: 7, Data: []byte("hello")},
			{Key: "r\x00t\x00k2", TID: 9, Data: []byte{0, 1, 2, 255}},
			{Key: "r\x00t\x00k3", TID: 11},                // empty payload
			{Key: "r\x00t\x00k4", TID: 13, Deleted: true}, // deletion tombstone
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, cp := range []*Checkpoint{testCheckpoint(), {Seq: 1}} {
		buf := EncodeCheckpoint(cp)
		got, err := DecodeCheckpoint(buf)
		if err != nil {
			t.Fatalf("DecodeCheckpoint: %v", err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
		}
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	buf := EncodeCheckpoint(testCheckpoint())
	variants := map[string][]byte{
		"empty":          {},
		"short header":   buf[:4],
		"torn tail":      buf[:len(buf)-3],
		"flipped byte":   append(append([]byte(nil), buf[:20]...), buf[20:]...),
		"flipped crc":    append([]byte(nil), buf...),
		"trailing bytes": append(append([]byte(nil), buf...), 0xab),
	}
	variants["flipped byte"][len(buf)/2] ^= 0x01
	variants["flipped crc"][5] ^= 0xff
	for name, v := range variants {
		if _, err := DecodeCheckpoint(v); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: DecodeCheckpoint = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLatestCheckpointFallback stores a valid checkpoint under a torn newer
// one: the torn blob must be skipped (counted), never partially loaded.
func TestLatestCheckpointFallback(t *testing.T) {
	s := NewMemStorage().Sub("c0")
	good := testCheckpoint()
	good.Seq = 1
	if err := s.WriteCheckpoint(1, EncodeCheckpoint(good)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	torn := EncodeCheckpoint(&Checkpoint{Seq: 2, LowLSN: 99})
	if err := s.WriteCheckpoint(2, torn[:len(torn)-2]); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	cp, skipped, err := LatestCheckpoint(s)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if skipped != 1 || cp == nil || cp.Seq != 1 || !reflect.DeepEqual(cp, good) {
		t.Fatalf("LatestCheckpoint = (%+v, skipped %d), want the seq-1 fallback", cp, skipped)
	}

	// Both torn: no checkpoint at all, full-replay fallback.
	if err := s.WriteCheckpoint(1, torn[:4]); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	cp, skipped, err = LatestCheckpoint(s)
	if err != nil || cp != nil || skipped != 2 {
		t.Fatalf("LatestCheckpoint = (%+v, %d, %v), want (nil, 2, nil)", cp, skipped, err)
	}

	// Empty storage: no checkpoint, nothing skipped.
	cp, skipped, err = LatestCheckpoint(NewMemStorage().Sub("empty"))
	if err != nil || cp != nil || skipped != 0 {
		t.Fatalf("LatestCheckpoint on empty storage = (%+v, %d, %v)", cp, skipped, err)
	}
}

// appendN appends n single-write commit records and returns the last LSN.
func appendN(t *testing.T, l *Log, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append(Record{TID: uint64(i + 1), Writes: []Write{
			{Key: "r\x00t\x00key", Data: []byte("0123456789abcdef")},
		}})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		last = lsn
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return last
}

func TestTruncateBelowDeletesOnlyWholeCoveredSegments(t *testing.T) {
	storage := NewMemStorage().Sub("c0")
	l, err := Open(storage, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	last := appendN(t, l, 20)
	before, _ := storage.List()
	if len(before) < 4 {
		t.Fatalf("only %d segments; segment size too large for the test", len(before))
	}

	mid := last / 2
	deleted, err := l.TruncateBelow(mid)
	if err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	if deleted == 0 {
		t.Fatal("TruncateBelow deleted nothing")
	}
	after, _ := storage.List()
	if len(after) != len(before)-deleted {
		t.Fatalf("storage holds %d segments, want %d", len(after), len(before)-deleted)
	}
	// Every record at or above the boundary segment must still replay; no
	// record above mid may be gone.
	seen := map[uint64]bool{}
	if err := l.Replay(func(rec Record) error {
		seen[rec.LSN] = true
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for lsn := mid + 1; lsn <= last; lsn++ {
		if !seen[lsn] {
			t.Fatalf("record %d above the truncation mark vanished", lsn)
		}
	}
	if stats := l.Stats(); stats.Truncations != 1 || stats.SegmentsDeleted != uint64(deleted) {
		t.Fatalf("stats = %+v, want 1 truncation deleting %d", stats, deleted)
	}

	// Truncating beyond the last LSN must keep the active segment and the
	// LSN watermark: a reopened log continues the sequence.
	if _, err := l.TruncateBelow(last + 100); err != nil {
		t.Fatalf("TruncateBelow(all): %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(storage, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := l2.LastLSN(); got != last {
		t.Fatalf("reopened LastLSN = %d, want %d (watermark lost to truncation)", got, last)
	}
	lsn, err := l2.Append(Record{TID: 999})
	if err != nil {
		t.Fatalf("post-truncation Append: %v", err)
	}
	if lsn != last+1 {
		t.Fatalf("post-truncation LSN = %d, want %d", lsn, last+1)
	}
	_ = l2.Close()
}

// TestTruncateBelowIdleLogKeepsWatermark reopens a log without appending (no
// active segment) and truncates everything: the newest record-bearing
// segment must survive so the LSN watermark does.
func TestTruncateBelowIdleLogKeepsWatermark(t *testing.T) {
	storage := NewMemStorage().Sub("c0")
	l, err := Open(storage, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	last := appendN(t, l, 10)
	_ = l.Close()

	l2, err := Open(storage, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.TruncateBelow(last); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	segs, _ := storage.List()
	if len(segs) == 0 {
		t.Fatal("truncation deleted every segment of an idle log")
	}
	if got := l2.LastLSN(); got != last {
		t.Fatalf("LastLSN = %d, want %d", got, last)
	}
	_ = l2.Close()

	l3, err := Open(storage, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if got := l3.LastLSN(); got != last {
		t.Fatalf("reopened LastLSN = %d, want %d", got, last)
	}
	_ = l3.Close()
}

// unlistableCheckpoints is a storage whose checkpoint listing fails, as a
// directory read can.
type unlistableCheckpoints struct {
	Storage
	err error
}

func (s unlistableCheckpoints) ListCheckpoints() ([]uint64, error) { return nil, s.err }

// TestOpenFailsWhenCheckpointsCannotBeListed: the log's truncated history is
// known only through the newest checkpoint's LowLSN. If the listing fails,
// Open must fail — treating the error as "no checkpoint" would restart the LSN
// sequence underneath LowLSN, and recovery would then skip every commit made
// after the restart as already captured.
func TestOpenFailsWhenCheckpointsCannotBeListed(t *testing.T) {
	storage := NewMemStorage()
	if err := storage.WriteCheckpoint(1, EncodeCheckpoint(&Checkpoint{Seq: 1, LowLSN: 40, HighLSN: 40})); err != nil {
		t.Fatal(err)
	}
	if l := Open2(t, storage); l.LastLSN() != 40 {
		t.Fatalf("LastLSN over a checkpoint at LowLSN 40 and no segments = %d, want 40", l.LastLSN())
	}
	cause := errors.New("injected directory read failure")
	if l, err := Open(unlistableCheckpoints{storage, cause}, Options{}); err == nil {
		t.Fatalf("Open swallowed the listing error and restarted at LSN %d, below LowLSN 40", l.LastLSN())
	} else if !errors.Is(err, cause) {
		t.Fatalf("Open = %v, want the listing error", err)
	}
}

// TestFileStorageCheckpoints runs the checkpoint sidecar API against real
// files: blobs round-trip, listing is ordered and segregated from segments,
// deletion is durable, and segment deletion works.
func TestFileStorageCheckpoints(t *testing.T) {
	s := NewFileStorage(t.TempDir()).Sub("c0")
	l, err := Open(s, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, l, 10)
	_ = l.Close()

	for seq := uint64(1); seq <= 3; seq++ {
		cp := testCheckpoint()
		cp.Seq = seq
		if err := s.WriteCheckpoint(seq, EncodeCheckpoint(cp)); err != nil {
			t.Fatalf("WriteCheckpoint %d: %v", seq, err)
		}
	}
	seqs, err := s.ListCheckpoints()
	if err != nil || !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("ListCheckpoints = (%v, %v)", seqs, err)
	}
	cp, skipped, err := LatestCheckpoint(s)
	if err != nil || skipped != 0 || cp == nil || cp.Seq != 3 {
		t.Fatalf("LatestCheckpoint = (%+v, %d, %v)", cp, skipped, err)
	}
	if err := s.DeleteCheckpoint(2); err != nil {
		t.Fatalf("DeleteCheckpoint: %v", err)
	}
	seqs, _ = s.ListCheckpoints()
	if !reflect.DeepEqual(seqs, []uint64{1, 3}) {
		t.Fatalf("ListCheckpoints after delete = %v", seqs)
	}
	// Checkpoint files must not shadow segments or vice versa.
	segs, err := s.List()
	if err != nil || len(segs) == 0 {
		t.Fatalf("List = (%v, %v)", segs, err)
	}
	if err := s.DeleteSegment(segs[0]); err != nil {
		t.Fatalf("DeleteSegment: %v", err)
	}
	segsAfter, _ := s.List()
	if len(segsAfter) != len(segs)-1 {
		t.Fatalf("List after DeleteSegment = %v", segsAfter)
	}
}

// TestFileStorageReplaceIsAtomic drives replaceFile on real files: an
// overwrite leaves no temporary file behind, a replace that fails before its
// rename leaves the previous contents, and a stray temporary file of a
// crashed replace is listed as neither a checkpoint nor a segment and is
// reclaimed by the next replace.
func TestFileStorageReplaceIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s := NewFileStorage(dir)
	read := func() string {
		t.Helper()
		b, err := s.ReadCheckpoint(1)
		if err != nil {
			t.Fatalf("ReadCheckpoint: %v", err)
		}
		return string(b)
	}
	for _, v := range []string{"first", "second"} {
		if err := s.WriteCheckpoint(1, []byte(v)); err != nil {
			t.Fatalf("WriteCheckpoint(%s): %v", v, err)
		}
	}
	if got := read(); got != "second" {
		t.Fatalf("after the overwrite: %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want the blob alone", len(entries))
	}

	// A directory squatting on the temporary name makes the replace fail
	// before it can rename anything over the blob.
	tmp := filepath.Join(dir, ".0000000000000001.ckpt.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, []byte("third")); err == nil {
		t.Fatal("WriteCheckpoint succeeded with its temporary path blocked")
	}
	if got := read(); got != "second" {
		t.Fatalf("a failed replace changed the blob to %q", got)
	}

	// The leftover of a replace that died after writing its temporary file.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("thi"), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := s.ListCheckpoints()
	if err != nil || !reflect.DeepEqual(seqs, []uint64{1}) {
		t.Fatalf("ListCheckpoints with a stray temporary file = (%v, %v)", seqs, err)
	}
	if segs, err := s.List(); err != nil || len(segs) != 0 {
		t.Fatalf("List with a stray temporary file = (%v, %v)", segs, err)
	}
	if err := s.WriteCheckpoint(1, []byte("fourth")); err != nil {
		t.Fatalf("WriteCheckpoint over a stray temporary file: %v", err)
	}
	if got := read(); got != "fourth" {
		t.Fatalf("after replacing over a stray temporary file: %q", got)
	}

	// Segments go through the same replace.
	l, err := Open(s, Options{SegmentSize: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, l, 6)
	_ = l.Close()
	segs, err := s.List()
	if err != nil || len(segs) < 2 {
		t.Fatalf("List = (%v, %v), want several segments", segs, err)
	}
	if err := s.ReplaceSegment(segs[len(segs)-1], nil); err != nil {
		t.Fatalf("ReplaceSegment: %v", err)
	}
	if b, err := s.ReadSegment(segs[len(segs)-1]); err != nil || len(b) != 0 {
		t.Fatalf("replaced segment = (%d bytes, %v), want empty", len(b), err)
	}
}
