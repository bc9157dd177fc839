package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the durable side of failover fencing: a per-node epoch/term
// record stored next to the log, plus the log-surgery helpers a supervisor
// needs to re-point or re-attach a node whose log diverged from the new
// primary (suffix truncation, full wipe; the tail scan is TailLSN in log.go).
//
// The epoch state lives in a reserved "epoch" sub-storage as a single
// CRC-framed blob, reusing the Storage checkpoint-blob machinery (durable
// overwrite, torn-write detection via CRC) without widening the Storage
// interface. The "epoch" namespace cannot collide with the engine's
// per-container subs ("container-%d").

// ErrFenced is returned by Append and Sync on a fenced log: a newer primary
// term exists and this node must not make further writes durable.
var ErrFenced = errors.New("wal: log fenced by a newer primary epoch")

// EpochState is one node's durable failover term record.
type EpochState struct {
	// Epoch is the primary term this node's log appends under. A promoted
	// replica's storage is stamped with the new term before the promoted
	// database opens, so its first append already carries it.
	Epoch uint64
	// FenceBelow fences every term below it: a node whose Epoch is lower
	// opens with its WAL refusing appends (ErrFenced). The supervisor writes
	// it into the deposed primary's storage — the shared-storage analog of
	// STONITH — so even a restart of the zombie cannot resurrect it as a
	// writable primary.
	FenceBelow uint64
}

// epochSub is the reserved sub-storage name holding the epoch blob.
const epochSub = "epoch"

// epochStateSeq is the fixed checkpoint-blob sequence number of the state.
const epochStateSeq = 0

// epochStateVersion is the blob format version byte.
const epochStateVersion = 1

// WriteEpochState durably records st on s, overwriting any previous state.
// On return the state survives a machine crash (the blob write fsyncs).
func WriteEpochState(s Storage, st EpochState) error {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+16)
	buf = append(buf, epochStateVersion)
	buf = binary.AppendUvarint(buf, st.Epoch)
	buf = binary.AppendUvarint(buf, st.FenceBelow)
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return s.Sub(epochSub).WriteCheckpoint(epochStateSeq, buf)
}

// ReadEpochState loads the node's durable epoch state. A missing or torn blob
// decodes as the zero state: a node that never saw a failover runs at epoch 0
// unfenced, and a fence write cut short by the very crash it raced recorded
// nothing — exactly the semantics of a fence that never became durable.
func ReadEpochState(s Storage) (EpochState, error) {
	sub := s.Sub(epochSub)
	seqs, err := sub.ListCheckpoints()
	if err != nil {
		return EpochState{}, err
	}
	found := false
	for _, seq := range seqs {
		if seq == epochStateSeq {
			found = true
			break
		}
	}
	if !found {
		return EpochState{}, nil
	}
	buf, err := sub.ReadCheckpoint(epochStateSeq)
	if err != nil {
		return EpochState{}, err
	}
	st, err := decodeEpochState(buf)
	if err != nil {
		return EpochState{}, nil // torn write: the state never became durable
	}
	return st, nil
}

func decodeEpochState(buf []byte) (EpochState, error) {
	if len(buf) < frameHeaderSize {
		return EpochState{}, fmt.Errorf("%w: truncated epoch state header", ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint32(buf)
	sum := binary.LittleEndian.Uint32(buf[4:])
	if payloadLen == 0 || int(payloadLen) != len(buf)-frameHeaderSize {
		return EpochState{}, fmt.Errorf("%w: epoch state frame length %d does not span the %d-byte blob",
			ErrCorrupt, payloadLen, len(buf))
	}
	payload := buf[frameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return EpochState{}, fmt.Errorf("%w: epoch state crc mismatch", ErrCorrupt)
	}
	if payload[0] != epochStateVersion {
		return EpochState{}, fmt.Errorf("%w: unknown epoch state version %d", ErrCorrupt, payload[0])
	}
	p := payload[1:]
	var st EpochState
	var err error
	if st.Epoch, p, err = readUvarint(p); err != nil {
		return EpochState{}, err
	}
	if st.FenceBelow, p, err = readUvarint(p); err != nil {
		return EpochState{}, err
	}
	if len(p) != 0 {
		return EpochState{}, fmt.Errorf("%w: %d trailing epoch state bytes", ErrCorrupt, len(p))
	}
	return st, nil
}

// TruncateAbove removes every record with LSN > lsn from a log's segments:
// segments whose every record is above the cut are deleted, and the segment
// containing the boundary is rewritten to its kept prefix (torn tail bytes
// are dropped with it — they were never durable records). It is the
// divergence-repair half of failover re-attach: the deposed primary's
// unacknowledged suffix beyond the new primary's durable LSN is unwound
// before the node tails the new log, whose fresh records will reuse those
// LSNs. The log must not be open while this runs. Returns the number of
// records removed.
func TruncateAbove(s Storage, lsn uint64) (int, error) {
	indexes, err := s.List()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, idx := range indexes {
		buf, err := s.ReadSegment(idx)
		if err != nil {
			return removed, err
		}
		// cut is where the first record above lsn starts; past the loop it.end
		// is where the decodable prefix stops (a torn tail follows if that is
		// short of the segment's length).
		cut, above := 0, 0
		it := frames(buf, 0)
		for it.next() {
			if it.rec.LSN > lsn {
				if above == 0 {
					cut = it.start
				}
				above++
			}
		}
		if above == 0 {
			if it.end == len(buf) {
				continue
			}
			cut = it.end // keep every whole record, shed the torn tail
		}
		removed += above
		if cut == 0 {
			if err := s.DeleteSegment(idx); err != nil {
				return removed, err
			}
			continue
		}
		if err := rewriteSegment(s, idx, buf[:cut]); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// rewriteSegment durably replaces a segment's contents with the given prefix.
func rewriteSegment(s Storage, idx uint64, data []byte) error {
	if err := s.DeleteSegment(idx); err != nil {
		return err
	}
	f, err := s.Create(idx)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WipeLog deletes every segment and checkpoint blob on s, leaving an empty
// log storage. Failover re-point falls back to it when suffix truncation is
// unsound — the node's newest checkpoint may have fuzzily captured effects
// beyond the cut (HighLSN above it, or unknown) — forcing a fresh bootstrap
// from the new primary's checkpoint instead.
func WipeLog(s Storage) error {
	indexes, err := s.List()
	if err != nil {
		return err
	}
	for _, idx := range indexes {
		if err := s.DeleteSegment(idx); err != nil {
			return err
		}
	}
	seqs, err := s.ListCheckpoints()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if err := s.DeleteCheckpoint(seq); err != nil {
			return err
		}
	}
	return nil
}
