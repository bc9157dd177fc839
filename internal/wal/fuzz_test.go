package wal

import (
	"errors"
	"reflect"
	"testing"
)

// seedFrames returns one encoded frame per record shape the log produces,
// including the 2PC prepare and decision kinds.
func seedFrames() [][]byte {
	records := []Record{
		{LSN: 1, TID: 7, Kind: KindCommit, Writes: []Write{
			{Key: "r\x00t\x00k1", Data: []byte("hello")},
			{Key: "r\x00t\x00k2", Delete: true},
		}},
		{LSN: 2, TID: 7, Kind: KindAbort},
		{LSN: 3, TID: 9, Kind: KindPrepare, GlobalID: 42, Coordinator: 1, Writes: []Write{
			{Key: "r\x00t\x00k3", Data: []byte{0, 1, 2, 255}},
		}},
		{LSN: 4, TID: 9, Kind: KindDecision, GlobalID: 42, Participants: []uint64{0, 1, 3}},
		{LSN: 5, TID: 11, Kind: KindCommit}, // read-only / empty write set
	}
	var frames [][]byte
	for i := range records {
		frames = append(frames, appendFrame(nil, &records[i]))
	}
	return frames
}

// FuzzDecodeRecord checks decodeRecord's contract on arbitrary input: it
// either rejects the buffer with an error wrapping ErrCorrupt, or returns a
// record that survives an encode/decode round trip — and it never panics,
// never over-reads the buffer, and never allocates from an implausible
// length field.
func FuzzDecodeRecord(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
		// Corrupted variants: truncated, bit-flipped payload, bit-flipped CRC.
		f.Add(frame[:len(frame)-1])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
		badCRC := append([]byte(nil), frame...)
		badCRC[4] ^= 0xff
		f.Add(badCRC)
	}
	f.Add([]byte{})
	f.Add([]byte("not a frame at all, definitely longer than a header"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if n <= frameHeaderSize || n > len(data) {
			t.Fatalf("decode consumed implausible frame length %d of %d", n, len(data))
		}
		// A record that decoded must round-trip: re-encoding and re-decoding
		// yields the same record (mis-decodes that alter writes, kinds or ids
		// cannot hide behind a passing CRC).
		re := appendFrame(nil, &rec)
		rec2, n2, err := decodeRecord(re, 0)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", rec2, rec)
		}
	})
}

// seedCheckpoints returns encoded checkpoint blobs covering the shapes the
// checkpointer produces.
func seedCheckpoints() [][]byte {
	checkpoints := []Checkpoint{
		{Seq: 1},
		{Seq: 2, LowLSN: 17, MaxTID: 1 << 41, MaxGlobalID: 9},
		{Seq: 3, LowLSN: 41, MaxTID: 1 << 42, MaxGlobalID: 12, Rows: []CheckpointRow{
			{Key: "r\x00t\x00k1", TID: 7, Data: []byte("hello")},
			{Key: "r\x00t\x00k2", TID: 9, Data: []byte{0, 1, 2, 255}},
			{Key: "r\x00t\x00k3", TID: 11},                // empty payload
			{Key: "r\x00t\x00k4", TID: 13, Deleted: true}, // deletion tombstone
		}},
	}
	var blobs [][]byte
	for i := range checkpoints {
		blobs = append(blobs, EncodeCheckpoint(&checkpoints[i]))
	}
	return blobs
}

// FuzzDecodeCheckpoint checks DecodeCheckpoint's contract on arbitrary input:
// a corrupt blob — torn write, bit rot, truncated file — is rejected with an
// error wrapping ErrCorrupt and no partial checkpoint is ever returned, so
// recovery always falls back to an older checkpoint or full replay; a blob
// that decodes must survive an encode/decode round trip. It must never
// panic, never over-read, and never allocate from an implausible length.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, blob := range seedCheckpoints() {
		f.Add(blob)
		// Corrupted variants: torn tail, bit-flipped payload, bit-flipped CRC,
		// trailing garbage after the frame.
		f.Add(blob[:len(blob)-1])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
		badCRC := append([]byte(nil), blob...)
		badCRC[4] ^= 0xff
		f.Add(badCRC)
		f.Add(append(append([]byte(nil), blob...), 0x00))
	}
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint, definitely longer than a frame header"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			if cp != nil {
				t.Fatal("decode returned partial checkpoint alongside an error")
			}
			return
		}
		re := EncodeCheckpoint(cp)
		cp2, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", cp2, cp)
		}
	})
}

// FuzzDecodeEpochState checks the term blob's decoder on arbitrary input: it
// never panics, a corrupt blob is ErrCorrupt and reads through
// ReadEpochState as the zero state — never written — and the cut count is
// bounded by the payload. A state that decodes survives an encode/decode
// round trip.
func FuzzDecodeEpochState(f *testing.F) {
	for _, st := range []EpochState{
		{},
		{Epoch: 3, FenceBelow: 3},
		{Epoch: 1, FenceBelow: 0, Cut: []uint64{0}},
		{Epoch: 7, FenceBelow: 5, Cut: []uint64{41, 0, 1 << 40}},
	} {
		blob := encodeEpochState(st)
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
		f.Add(append(append([]byte(nil), blob...), 0x00))
	}
	f.Add([]byte{})
	f.Add(frameBlob([]byte{epochStateVersion, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x01})) // a cut count far past the payload

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewMemStorage()
		if err := s.Sub(epochSub).WriteCheckpoint(epochStateSeq, data); err != nil {
			t.Fatal(err)
		}
		read, err := ReadEpochState(s)
		if err != nil {
			t.Fatalf("ReadEpochState: %v", err)
		}
		st, err := decodeEpochState(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			if !reflect.DeepEqual(read, EpochState{}) {
				t.Fatalf("a corrupt blob read as %+v, want the zero state", read)
			}
			return
		}
		if !reflect.DeepEqual(read, st) {
			t.Fatalf("ReadEpochState = %+v, decodeEpochState = %+v", read, st)
		}
		if len(st.Cut) > len(data) {
			t.Fatalf("decoded a %d-LSN cut from %d bytes", len(st.Cut), len(data))
		}
		st2, err := decodeEpochState(encodeEpochState(st))
		if err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", st2, st)
		}
	})
}
