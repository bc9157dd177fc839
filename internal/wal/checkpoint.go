package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Checkpoint is a fuzzy snapshot of one container's committed catalog state,
// stored as a sidecar file next to the log's segments (see Storage's
// checkpoint methods). It is the starting point of the recovery fast path:
// install Rows, then replay only log records with LSN > LowLSN.
//
// The fuzzy-checkpoint contract the producer must uphold: every committed
// transaction whose record carries an LSN <= LowLSN had all of its effects
// installed in memory before the snapshot of Rows began, and is therefore
// fully captured. Transactions with records above LowLSN may be partially
// captured — replaying the log suffix on top of the snapshot (idempotently,
// newest TID wins) converges on the correct state. Segments every record of
// which is at or below LowLSN can be deleted once the checkpoint is durable
// (Log.TruncateBelow).
type Checkpoint struct {
	// Seq is the checkpoint's sequence number; recovery loads the newest
	// decodable checkpoint and falls back to older ones (and finally to full
	// replay) when a checkpoint is torn or corrupt.
	Seq uint64
	// LowLSN is the replay low-water mark: records with LSN <= LowLSN are
	// captured by Rows and must not be re-applied blindly (replay remains
	// idempotent regardless); segments wholly at or below it are deletable.
	LowLSN uint64
	// MaxTID is a transaction-id watermark at snapshot time, at least as
	// large as every TID captured in Rows — including TIDs of deleted rows,
	// which the snapshot otherwise forgets. Recovery advances the concurrency
	// control domain past it so post-recovery TIDs never collide with
	// truncated history.
	MaxTID uint64
	// MaxGlobalID is the database-wide root transaction id watermark at
	// snapshot time. Truncation deletes the prepare/decision records the
	// recovery scan previously reseeded the id sequence from, so the
	// checkpoint must carry the watermark itself.
	MaxGlobalID uint64
	// HighLSN is the fuzzy-capture horizon: the log's last assigned LSN when
	// the Rows snapshot finished. Rows may have absorbed effects of any
	// record up to HighLSN (the fuzzy leak that suffix replay normally
	// corrects), and of nothing above it. Failover divergence repair uses it:
	// truncating the log above some LSN T is sound against this checkpoint
	// only when T >= HighLSN, otherwise the blob may carry an effect whose
	// record was just cut. 0 (a checkpoint taken over an empty log) is read as
	// an unknown horizon: treat as unbounded.
	HighLSN uint64
	// Rows is the snapshot: one entry per indexed row, carrying the engine's
	// fully-qualified key, the row's committed version, and either its
	// payload or a deletion tombstone. Tombstones matter for the documented
	// loader flow: base data re-loaded before Recover must not resurrect a
	// row whose (truncated) delete record the checkpoint absorbed.
	Rows []CheckpointRow
}

// CheckpointRow is one captured row of a checkpoint. Deleted marks a
// committed deletion (Data is empty): the key existed, a transaction below
// the checkpoint's low-water mark removed it, and installing the checkpoint
// must leave — or make — it absent even if a loader repopulated it.
type CheckpointRow struct {
	Key     string
	TID     uint64
	Data    []byte
	Deleted bool
}

// checkpointVersion is the blob format version byte. Any other value is
// corruption: LatestCheckpoint falls back to an older blob or to full replay.
const checkpointVersion = 2

// EncodeCheckpoint encodes cp as a single CRC-framed blob: the same 4-byte
// length + 4-byte CRC32 header the log's record frames use, then
//
//	1 version byte | uvarint Seq | uvarint LowLSN | uvarint MaxTID |
//	uvarint MaxGlobalID | uvarint HighLSN | uvarint #rows |
//	  per row: 1 flag byte (bit0 = deleted) | uvarint keyLen | key |
//	           uvarint TID | uvarint dataLen | data
//
// A checkpoint file holds exactly one frame; trailing bytes are corruption.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+64)
	buf = append(buf, checkpointVersion)
	buf = binary.AppendUvarint(buf, cp.Seq)
	buf = binary.AppendUvarint(buf, cp.LowLSN)
	buf = binary.AppendUvarint(buf, cp.MaxTID)
	buf = binary.AppendUvarint(buf, cp.MaxGlobalID)
	buf = binary.AppendUvarint(buf, cp.HighLSN)
	buf = binary.AppendUvarint(buf, uint64(len(cp.Rows)))
	for _, r := range cp.Rows {
		var flags byte
		if r.Deleted {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
		buf = append(buf, r.Key...)
		buf = binary.AppendUvarint(buf, r.TID)
		buf = binary.AppendUvarint(buf, uint64(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return buf
}

// DecodeCheckpoint decodes one checkpoint blob. Decoding is strict and
// all-or-nothing: a short frame, CRC mismatch, unknown version, implausible
// length, or trailing bytes (inside the payload or after the frame) returns
// an error wrapping ErrCorrupt and no partial checkpoint. Recovery treats any
// such error as "this checkpoint does not exist" and falls back to an older
// checkpoint or to full log replay.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < frameHeaderSize {
		return nil, fmt.Errorf("%w: truncated checkpoint header", ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint32(buf)
	sum := binary.LittleEndian.Uint32(buf[4:])
	if payloadLen == 0 || payloadLen > maxPayload {
		return nil, fmt.Errorf("%w: implausible checkpoint payload length %d", ErrCorrupt, payloadLen)
	}
	if int(payloadLen) != len(buf)-frameHeaderSize {
		return nil, fmt.Errorf("%w: checkpoint frame length %d does not span the %d-byte file",
			ErrCorrupt, payloadLen, len(buf))
	}
	payload := buf[frameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checkpoint crc mismatch", ErrCorrupt)
	}

	p := payload
	if p[0] != checkpointVersion {
		return nil, fmt.Errorf("%w: unknown checkpoint version %d", ErrCorrupt, p[0])
	}
	p = p[1:]
	var cp Checkpoint
	var err error
	if cp.Seq, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	if cp.LowLSN, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	if cp.MaxTID, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	if cp.MaxGlobalID, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	if cp.HighLSN, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	var n uint64
	if n, p, err = readUvarint(p); err != nil {
		return nil, err
	}
	if n > uint64(len(p)) { // each row needs at least its flag byte
		return nil, fmt.Errorf("%w: checkpoint row count %d exceeds payload", ErrCorrupt, n)
	}
	if n > 0 {
		cp.Rows = make([]CheckpointRow, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var r CheckpointRow
		var keyLen, dataLen uint64
		if len(p) == 0 {
			return nil, fmt.Errorf("%w: truncated checkpoint row flags", ErrCorrupt)
		}
		flags := p[0]
		p = p[1:]
		if flags&^byte(1) != 0 {
			return nil, fmt.Errorf("%w: unknown checkpoint row flags %#x", ErrCorrupt, flags)
		}
		r.Deleted = flags&1 != 0
		if keyLen, p, err = readUvarint(p); err != nil {
			return nil, err
		}
		if keyLen > uint64(len(p)) {
			return nil, fmt.Errorf("%w: truncated checkpoint key", ErrCorrupt)
		}
		r.Key = string(p[:keyLen])
		p = p[keyLen:]
		if r.TID, p, err = readUvarint(p); err != nil {
			return nil, err
		}
		if dataLen, p, err = readUvarint(p); err != nil {
			return nil, err
		}
		if dataLen > uint64(len(p)) {
			return nil, fmt.Errorf("%w: truncated checkpoint data", ErrCorrupt)
		}
		if r.Deleted && dataLen > 0 {
			return nil, fmt.Errorf("%w: checkpoint tombstone carries %d data bytes", ErrCorrupt, dataLen)
		}
		if dataLen > 0 {
			r.Data = append([]byte(nil), p[:dataLen]...)
		}
		p = p[dataLen:]
		cp.Rows = append(cp.Rows, r)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing checkpoint payload bytes", ErrCorrupt, len(p))
	}
	return &cp, nil
}

// LatestCheckpoint loads the newest decodable checkpoint stored on s. Torn or
// corrupt checkpoints (a crash mid-write, bit rot) are skipped — never loaded
// partially — and the number skipped is reported so recovery can surface the
// fallback; a checkpoint file that vanishes between listing and reading is
// treated the same way. (nil, 0, nil) means no checkpoint exists at all and
// recovery must replay the full log.
func LatestCheckpoint(s Storage) (*Checkpoint, int, error) {
	seqs, err := s.ListCheckpoints()
	if err != nil {
		return nil, 0, err
	}
	skipped := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		buf, err := s.ReadCheckpoint(seqs[i])
		if err != nil {
			if os.IsNotExist(err) {
				skipped++
				continue
			}
			return nil, skipped, err
		}
		cp, err := DecodeCheckpoint(buf)
		if err != nil {
			skipped++
			continue
		}
		return cp, skipped, nil
	}
	return nil, skipped, nil
}
