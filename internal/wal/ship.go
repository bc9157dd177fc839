package wal

import (
	"errors"
	"slices"
)

// This file is log shipping: a ShipCursor tails a primary log's segments
// read-only through the Storage interface, and Log.AppendShipped appends the
// frames it yields, verbatim, to a second Log on the replica's own storage.
// The mirror is a log — the same Open, rotation, fsync watermark, Replay,
// TruncateBelow, Close and Stats as the primary's — holding byte-identical
// CRC-framed records, so promoting a replica is opening its storage and
// running ordinary recovery.

// ShippedRecord is one record pulled off a primary log: the decoded record
// plus the raw frame bytes exactly as they appear in the primary's segment,
// ready to be appended verbatim by Log.AppendShipped.
type ShippedRecord struct {
	Record
	// Frame is the CRC-framed encoding of Record (header + payload). It
	// aliases the segment snapshot the cursor read, which is never mutated.
	Frame []byte
}

// ErrShipGap reports that log truncation on the primary deleted a segment the
// cursor had not fully shipped: records are gone from the log forever, so the
// replica must re-bootstrap from the newest checkpoint instead of tailing.
// The engine avoids this in steady state by clamping truncation to the
// replication floor (the minimum shipped LSN across attached replicas); the
// error covers replicas that fall behind while detached.
var ErrShipGap = errors.New("wal: shipping gap: segment truncated under cursor")

// ShipCursor tails one log's segments through its Storage. It is a pure
// reader: the primary's Log instance never knows the cursor exists, which is
// exactly the property that lets shipping be retrofitted onto a running
// system (and, later, move across a network boundary — the cursor only needs
// List and ReadSegment).
//
// Poll is gated by the primary's durable LSN, which the caller snapshots from
// Log.DurableLSN. Gating matters for correctness, not just politeness: the
// failed-append salvage path leaves complete leading frames of an aborted
// batch in a sealed segment, and those orphan frames become covered by the
// durable watermark only in the same fsync that makes their abort records
// durable. A durable-gated cursor therefore always ships an orphan frame and
// its retraction in the same Poll, so an applier that registers a batch's
// aborts before applying the batch can never install an aborted write.
type ShipCursor struct {
	storage Storage
	seg     uint64 // current segment index
	off     int    // byte offset of the next undecoded frame in seg
	lastLSN uint64 // highest LSN shipped (or skipped as already-shipped)
	gated   bool   // last stop was the durable gate, not end-of-prefix
}

// NewShipCursor returns a cursor that ships every record with LSN > afterLSN,
// in LSN order. Pass 0 to ship the whole remaining log, or a replica's last
// locally durable LSN to resume after a restart.
func NewShipCursor(storage Storage, afterLSN uint64) *ShipCursor {
	return &ShipCursor{storage: storage, lastLSN: afterLSN}
}

// Poll ships every not-yet-shipped record with LSN <= durable, appending to
// dst (pass nil or a reused slice). It never blocks: when the log has no new
// durable records the result is empty. A torn or undecodable frame ends a
// segment's shipped prefix; the cursor moves past it only once a higher
// segment index exists, which (by the log's rotation discipline) proves the
// torn segment is sealed and its tail permanently dead.
func (c *ShipCursor) Poll(durable uint64, dst []ShippedRecord) ([]ShippedRecord, error) {
	out := dst[:0]
	if durable <= c.lastLSN {
		return out, nil
	}
	indexes, err := c.storage.List()
	if err != nil {
		return out, err
	}
	if len(indexes) == 0 {
		return out, nil
	}
	pos, found := slices.BinarySearch(indexes, c.seg)
	if !found {
		// Our segment (for a new cursor, segment 0) was truncated away. If the
		// last stop drained the segment's decodable prefix, everything it held
		// was shipped (the engine's truncation floor guarantees this in steady
		// state) and the cursor resumes on the oldest surviving segment; if
		// the durable gate stopped us mid-segment, or segments older than ours
		// outlived it, records are lost.
		if c.gated || pos > 0 {
			return out, ErrShipGap
		}
		c.seg, c.off = indexes[0], 0
	}
	for {
		buf, err := c.storage.ReadSegment(c.seg)
		if err != nil {
			return out, err
		}
		// A torn tail, or a frame still being written, ends the iteration.
		for it := frames(buf, c.off); it.next(); c.off = it.end {
			if it.rec.LSN > durable {
				c.gated = true
				return out, nil
			}
			if it.rec.LSN <= c.lastLSN {
				continue // resume skip: already shipped before a restart
			}
			c.lastLSN = it.rec.LSN
			out = append(out, ShippedRecord{Record: it.rec, Frame: buf[it.start:it.end]})
		}
		c.gated = false
		if pos+1 >= len(indexes) {
			return out, nil // active segment: wait for more bytes or a rotation
		}
		pos++
		c.seg, c.off = indexes[pos], 0
	}
}

// AppendShipped appends one already-encoded frame — a ShippedRecord's Frame,
// whose record carries lsn — to a log that mirrors another. The bytes go in
// verbatim: the LSN and epoch the primary stamped are kept, and this log's own
// epoch and fence play no part (a mirror is written by its replica alone).
// Frames must arrive in ascending LSN order; one at or below the log's last
// LSN is skipped silently — the resume overlap after a restart, or a record
// the local checkpoint covers (see Open). Rotation, Sync and the durable
// watermark, Close and Stats are the log's own.
//
// A failed write wedges the log: the tail may be torn, and where AppendBatch
// would retract its batch with abort records, a mirror must not invent records
// — its records are the primary's or nothing. The next Open ends the log at
// its last whole record and shipping resumes from there.
func (l *Log) AppendShipped(lsn uint64, frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if lsn <= l.appended.Load() {
		return nil
	}
	if err := l.ensureActiveLocked(); err != nil {
		return err
	}
	if l.activeLen > 0 && l.activeLen+len(frame) > l.segSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		l.broken = err
		l.refreshRefusingLocked()
		return err
	}
	l.appended.Store(lsn)
	l.activeLen += len(frame)
	l.unsynced += len(frame)
	l.appends++
	l.appendedBytes += uint64(len(frame))
	return nil
}

// CopyLatestCheckpoint copies the newest checkpoint blob from src to dst
// byte-for-byte (same sequence number, so a promoted replica's recovery finds
// it exactly where a primary's would) if its LowLSN is at least minLowLSN,
// returning the decoded checkpoint. A replica passes one past its checkpoint
// floor — the blob is wanted whenever it is a newer round — or 0 when it has
// no checkpoint of its own and wants whatever exists. (nil, nil) means src
// holds no such checkpoint and nothing was copied; only the blob's header is
// decoded to tell, and its rows only when it is copied. The blob copied is
// the one decoded: it is read once.
func CopyLatestCheckpoint(src, dst Storage, minLowLSN uint64) (*Checkpoint, error) {
	cp, rows, blob, _, err := latestCheckpoint(src)
	if err != nil || cp == nil || cp.LowLSN < minLowLSN {
		return nil, err
	}
	if err := cp.decodeRows(rows); err != nil {
		return nil, err
	}
	if err := dst.WriteCheckpoint(cp.Seq, blob); err != nil {
		return nil, err
	}
	return cp, nil
}
