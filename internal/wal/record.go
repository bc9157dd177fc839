package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write is one write of a commit record: a fully-qualified key (the engine
// encodes reactor, relation and primary key into it), the full row image, and
// whether the write is a deletion.
type Write struct {
	Key    string
	Data   []byte
	Delete bool
}

// Kind distinguishes the record types of the atomic commit protocol.
type Kind uint8

const (
	// KindCommit is a single-log commit record: the transaction's full write
	// set, durable means committed.
	KindCommit Kind = iota
	// KindAbort retracts any earlier record in the same log carrying the same
	// TID (commit, prepare or decision). It is appended when a transaction
	// fails after this log already received one of its records, and by
	// recovery as the durable tombstone of a presumed-abort resolution, so
	// replay must never surface the retracted record. Retraction is
	// LSN-ordered: an abort record only retracts records appended before it.
	KindAbort
	// KindPrepare is a two-phase-commit participant record: the participant's
	// full write set, staged but undecided. Recovery applies it only if a
	// decision record for its GlobalID is durable in some log (the
	// coordinator's); otherwise the transaction is presumed aborted.
	KindPrepare
	// KindDecision is the coordinator's commit decision for a multi-container
	// transaction: once it is durable the transaction is committed on every
	// participant. It carries the full participant set (container ids) and is
	// appended only after every participant's prepare record is durable.
	KindDecision
)

// Record is one transaction outcome in the log. LSN is assigned by the Log
// at append time; TID is the commit timestamp the concurrency control domain
// assigned at prepare (for decision records, the coordinator participant's
// TID, which makes retraction by TID precise). GlobalID ties the prepare and
// decision records of one multi-container transaction together across logs.
type Record struct {
	LSN  uint64
	TID  uint64
	Kind Kind
	// Epoch is the primary term under which the record was appended (0 for
	// logs that predate supervised failover). A promoted primary appends at a
	// strictly higher epoch than its predecessor, so a record's epoch tells
	// re-attach tooling which regime produced it; fencing rejects appends at
	// the Log layer before a record with a stale epoch can form.
	Epoch uint64
	// GlobalID is the root transaction's database-wide id (prepare and
	// decision records only). Recovery resolves a prepare record by looking
	// for a decision record with the same GlobalID.
	GlobalID uint64
	// Coordinator is the container id of the log holding the transaction's
	// decision record (prepare records only; diagnostic — recovery scans
	// every log for decisions).
	Coordinator uint64
	// Participants lists the container ids of every 2PC participant
	// (decision records only).
	Participants []uint64
	Writes       []Write
}

// Frame layout: a 4-byte little-endian payload length, a 4-byte CRC32 (IEEE)
// of the payload, then the payload itself. The payload is:
//
//	uvarint LSN | uvarint TID |
//	1 record flag byte (bit0 = abort, bit1 = prepare, bit2 = decision;
//	                    at most one kind bit set, commit otherwise;
//	                    bit3 = an epoch uvarint follows) |
//	bit3 only:     uvarint Epoch |
//	prepare only:  uvarint GlobalID | uvarint Coordinator |
//	decision only: uvarint GlobalID | uvarint #participants | participants |
//	uvarint #writes |
//	  per write: 1 flag byte (bit0 = delete) | uvarint keyLen | key |
//	             uvarint dataLen | data
//
// Decoding is strict: unknown flag bits, multiple kind bits, or trailing
// payload bytes are corruption, never silently ignored. A record that does
// not frame-check (short frame or CRC mismatch) ends the containing segment's
// replay prefix: it is the torn tail of a crashed append.
const frameHeaderSize = 8

// maxPayload bounds a single record's encoded payload; a length field above
// it is treated as corruption rather than attempting a huge allocation.
const maxPayload = 1 << 30

// ErrCorrupt reports a record that failed its CRC or structural checks in a
// position where the log cannot simply stop (mid-segment with valid data
// after it is indistinguishable from a torn tail, so decode errors surface as
// end-of-log instead; ErrCorrupt is returned by decodeRecord for tests).
var ErrCorrupt = errors.New("wal: corrupt record")

// record flag bits.
const (
	flagAbort    = 1 << 0
	flagPrepare  = 1 << 1
	flagDecision = 1 << 2
	// flagEpoch marks a record stamped with a non-zero primary epoch: an
	// epoch uvarint follows the flag byte. Epoch-zero records omit both the
	// bit and the field, so pre-failover logs stay byte-identical.
	flagEpoch = 1 << 3
	flagKind  = flagAbort | flagPrepare | flagDecision
	flagKnown = flagKind | flagEpoch
)

// appendFrame encodes rec as one CRC-framed record appended to buf.
func appendFrame(buf []byte, rec *Record) []byte {
	payloadStart := len(buf) + frameHeaderSize
	// Reserve the header; the payload length and CRC are patched in below.
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.TID)
	var recFlags byte
	switch rec.Kind {
	case KindAbort:
		recFlags |= flagAbort
	case KindPrepare:
		recFlags |= flagPrepare
	case KindDecision:
		recFlags |= flagDecision
	}
	if rec.Epoch != 0 {
		recFlags |= flagEpoch
	}
	buf = append(buf, recFlags)
	if rec.Epoch != 0 {
		buf = binary.AppendUvarint(buf, rec.Epoch)
	}
	switch rec.Kind {
	case KindPrepare:
		buf = binary.AppendUvarint(buf, rec.GlobalID)
		buf = binary.AppendUvarint(buf, rec.Coordinator)
	case KindDecision:
		buf = binary.AppendUvarint(buf, rec.GlobalID)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Participants)))
		for _, p := range rec.Participants {
			buf = binary.AppendUvarint(buf, p)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Writes)))
	for _, w := range rec.Writes {
		var flags byte
		if w.Delete {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
		buf = append(buf, w.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(w.Data)))
		buf = append(buf, w.Data...)
	}
	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[payloadStart-frameHeaderSize:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[payloadStart-4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord decodes one framed record starting at buf[off]. It returns the
// record and the offset just past the frame. Any framing or structural
// problem returns an error wrapping ErrCorrupt; replay treats it as the end
// of the valid log prefix.
func decodeRecord(buf []byte, off int) (Record, int, error) {
	if off+frameHeaderSize > len(buf) {
		return Record{}, 0, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint32(buf[off:])
	sum := binary.LittleEndian.Uint32(buf[off+4:])
	if payloadLen == 0 || payloadLen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
	}
	start := off + frameHeaderSize
	end := start + int(payloadLen)
	if end > len(buf) {
		return Record{}, 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	payload := buf[start:end]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}

	var rec Record
	p := payload
	var err error
	if rec.LSN, p, err = readUvarint(p); err != nil {
		return Record{}, 0, err
	}
	if rec.TID, p, err = readUvarint(p); err != nil {
		return Record{}, 0, err
	}
	if len(p) == 0 {
		return Record{}, 0, fmt.Errorf("%w: truncated record flags", ErrCorrupt)
	}
	recFlags := p[0]
	p = p[1:]
	if recFlags&^byte(flagKnown) != 0 {
		return Record{}, 0, fmt.Errorf("%w: unknown record flags %#x", ErrCorrupt, recFlags)
	}
	switch recFlags & flagKind {
	case 0:
		rec.Kind = KindCommit
	case flagAbort:
		rec.Kind = KindAbort
	case flagPrepare:
		rec.Kind = KindPrepare
	case flagDecision:
		rec.Kind = KindDecision
	default:
		return Record{}, 0, fmt.Errorf("%w: conflicting record flags %#x", ErrCorrupt, recFlags)
	}
	if recFlags&flagEpoch != 0 {
		if rec.Epoch, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		if rec.Epoch == 0 {
			// A zero epoch is encoded by omitting the bit; an explicit zero is
			// a non-canonical frame no writer produces.
			return Record{}, 0, fmt.Errorf("%w: explicit zero epoch", ErrCorrupt)
		}
	}
	switch rec.Kind {
	case KindPrepare:
		if rec.GlobalID, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		if rec.Coordinator, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
	case KindDecision:
		if rec.GlobalID, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		var np uint64
		if np, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		if np > uint64(len(p)) { // each participant id needs at least one byte
			return Record{}, 0, fmt.Errorf("%w: participant count %d exceeds payload", ErrCorrupt, np)
		}
		if np > 0 {
			rec.Participants = make([]uint64, 0, np)
			for i := uint64(0); i < np; i++ {
				var id uint64
				if id, p, err = readUvarint(p); err != nil {
					return Record{}, 0, err
				}
				rec.Participants = append(rec.Participants, id)
			}
		}
	}
	var n uint64
	if n, p, err = readUvarint(p); err != nil {
		return Record{}, 0, err
	}
	if n > uint64(len(p)) { // each write needs at least its flag byte
		return Record{}, 0, fmt.Errorf("%w: write count %d exceeds payload", ErrCorrupt, n)
	}
	if n > 0 {
		rec.Writes = make([]Write, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return Record{}, 0, fmt.Errorf("%w: truncated write flags", ErrCorrupt)
		}
		flags := p[0]
		p = p[1:]
		if flags&^byte(1) != 0 {
			return Record{}, 0, fmt.Errorf("%w: unknown write flags %#x", ErrCorrupt, flags)
		}
		var w Write
		var keyLen, dataLen uint64
		if keyLen, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		if keyLen > uint64(len(p)) {
			return Record{}, 0, fmt.Errorf("%w: truncated key", ErrCorrupt)
		}
		w.Key = string(p[:keyLen])
		p = p[keyLen:]
		if dataLen, p, err = readUvarint(p); err != nil {
			return Record{}, 0, err
		}
		if dataLen > uint64(len(p)) {
			return Record{}, 0, fmt.Errorf("%w: truncated data", ErrCorrupt)
		}
		if dataLen > 0 {
			w.Data = append([]byte(nil), p[:dataLen]...)
		}
		p = p[dataLen:]
		w.Delete = flags&1 != 0
		rec.Writes = append(rec.Writes, w)
	}
	if len(p) != 0 {
		return Record{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return rec, end, nil
}

// frameIter walks the decodable prefix of one segment's bytes, frame by frame.
// It is the only caller of decodeRecord outside tests, so "where does a
// segment's valid prefix end" has one answer: at the first frame that does not
// decode — the torn tail of a crashed append, or a frame still being written.
// After next returns false, end is the offset at which decoding stopped.
type frameIter struct {
	buf        []byte
	rec        Record // the current frame's record
	start, end int    // the current frame is buf[start:end]
}

// frames iterates buf's frames from offset off (0 for a whole segment).
func frames(buf []byte, off int) frameIter { return frameIter{buf: buf, end: off} }

func (it *frameIter) next() bool {
	if it.end >= len(it.buf) {
		return false // clean end of segment; not worth decodeRecord's error value
	}
	rec, end, err := decodeRecord(it.buf, it.end)
	if err != nil {
		return false
	}
	it.rec, it.start, it.end = rec, it.end, end
	return true
}

// DecodeAll decodes the valid record prefix of one segment's raw contents,
// returning the records and the offset at which decoding stopped (equal to
// len(buf) when the whole segment decoded). Crash audits and experiments use
// it to inspect segments without opening a Log.
func DecodeAll(buf []byte) ([]Record, int) {
	var recs []Record
	it := frames(buf, 0)
	for it.next() {
		recs = append(recs, it.rec)
	}
	return recs, it.end
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, p[n:], nil
}
