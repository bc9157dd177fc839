package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is a node's failover term — one durable record beside its logs
// (EpochState) that a Term holds in force — plus the log-surgery helpers a
// supervisor needs to re-point or re-attach a node whose log diverged from
// the new primary (suffix truncation, full wipe; the tail scan is TailLSN in
// log.go).
//
// The record lives in a reserved "epoch" sub-storage as a single CRC-framed
// blob, reusing the Storage checkpoint-blob machinery (atomic durable
// overwrite, corruption detection via CRC) without widening the Storage
// interface. The "epoch" namespace cannot collide with the engine's
// per-container subs ("container-%d").

// ErrFenced is returned by Append and Sync on a fenced log: a newer primary
// term exists and this node must not make further writes durable.
var ErrFenced = errors.New("wal: log fenced by a newer primary epoch")

// EpochState is one node's durable failover term record.
type EpochState struct {
	// Epoch is the primary term this node's logs append under.
	Epoch uint64
	// FenceBelow fences every term below it: a node whose Epoch is lower
	// opens with its WAL refusing appends (ErrFenced). The supervisor writes
	// it into the deposed primary's storage — the shared-storage analog of
	// STONITH — so even a restart of the zombie cannot resurrect it as a
	// writable primary.
	FenceBelow uint64
	// Cut is the promotion cut where Epoch began, one LSN per container: the
	// last record of the old timeline the node held when it was promoted (0
	// when none is known to match other nodes' logs). Above it the node's log
	// is a new timeline, so divergence repair reconciles other logs against
	// the cut. nil on a node never promoted.
	Cut []uint64
}

// The record is blob epochStateSeq of sub-storage epochSub, in format
// version epochStateVersion.
const (
	epochSub          = "epoch"
	epochStateSeq     = 0
	epochStateVersion = 1
)

// encodeEpochState encodes st as one CRC-framed blob:
//
//	1 version byte | uvarint Epoch | uvarint FenceBelow |
//	only with a cut: uvarint #cut (at least 1) | cut LSNs
//
// so a state without a cut encodes as the record did before it had one.
func encodeEpochState(st EpochState) []byte {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+16+2*len(st.Cut))
	buf = append(buf, epochStateVersion)
	buf = binary.AppendUvarint(buf, st.Epoch)
	buf = binary.AppendUvarint(buf, st.FenceBelow)
	if len(st.Cut) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(st.Cut)))
		for _, lsn := range st.Cut {
			buf = binary.AppendUvarint(buf, lsn)
		}
	}
	sealFrame(buf, 0)
	return buf
}

// WriteEpochState durably records st on s, overwriting any previous state.
// On return the state survives a machine crash (the blob write fsyncs).
func WriteEpochState(s Storage, st EpochState) error {
	return s.Sub(epochSub).WriteCheckpoint(epochStateSeq, encodeEpochState(st))
}

// ReadEpochState loads the node's durable epoch state. A missing blob decodes
// as the zero state: a node that never saw a failover runs at epoch 0
// unfenced. A state write cut short by the very crash it raced leaves the
// previous state (WriteCheckpoint overwrites atomically) — exactly the
// semantics of a fence that never became durable. A blob that fails its CRC
// anyway decodes as the zero state too.
func ReadEpochState(s Storage) (EpochState, error) {
	sub := s.Sub(epochSub)
	seqs, err := sub.ListCheckpoints()
	if err != nil || !slices.Contains(seqs, epochStateSeq) {
		return EpochState{}, err
	}
	buf, err := sub.ReadCheckpoint(epochStateSeq)
	if err != nil {
		return EpochState{}, err
	}
	st, err := decodeEpochState(buf)
	if err != nil {
		return EpochState{}, nil // corrupt blob: decoded as never written
	}
	return st, nil
}

func decodeEpochState(buf []byte) (EpochState, error) {
	p, err := openBlob(buf)
	if err != nil {
		return EpochState{}, err
	}
	if p[0] != epochStateVersion {
		return EpochState{}, fmt.Errorf("%w: unknown epoch state version %d", ErrCorrupt, p[0])
	}
	var st EpochState
	p = p[1:]
	for _, f := range []*uint64{&st.Epoch, &st.FenceBelow} {
		if *f, p, err = readUvarint(p); err != nil {
			return EpochState{}, err
		}
	}
	if len(p) > 0 {
		var n uint64
		if n, p, err = readUvarint(p); err != nil {
			return EpochState{}, err
		}
		if n == 0 || n > uint64(len(p)) { // each cut LSN needs at least one byte
			return EpochState{}, fmt.Errorf("%w: cut count %d does not fit the payload", ErrCorrupt, n)
		}
		st.Cut = make([]uint64, n)
		for i := range st.Cut {
			if st.Cut[i], p, err = readUvarint(p); err != nil {
				return EpochState{}, err
			}
		}
	}
	if len(p) != 0 {
		return EpochState{}, fmt.Errorf("%w: %d trailing epoch state bytes", ErrCorrupt, len(p))
	}
	return st, nil
}

// Term is a node's failover term in force: its EpochState record, loaded
// once when the node opens and shared with every container log
// (Options.Term). Reads take no lock; Fence and Promote, its only writes,
// take no log's lock, so fencing never waits on the disk it fences. The zero
// Term is epoch 0, unfenced, with no record: Fence works in memory only.
type Term struct {
	storage      Storage
	epoch, fence atomic.Uint64
	mu           sync.Mutex // serializes the record's writes, across the blob write; guards cut
	cut          []uint64
}

// LoadTerm loads the record on s and puts it in force, cut included.
func LoadTerm(s Storage) (*Term, error) {
	st, err := ReadEpochState(s)
	if err != nil {
		return nil, err
	}
	t := &Term{storage: s, cut: st.Cut}
	t.epoch.Store(st.Epoch)
	t.fence.Store(st.FenceBelow)
	return t, nil
}

// NewTerm returns a term over the record on s that is not in force until
// Promote, for a replica's mirror logs: they append no record of their own,
// so a fence the storage holds from a node it once served must not refuse
// their syncs. Promote still honours that fence.
func NewTerm(s Storage) *Term { return &Term{storage: s} }

// Epoch returns the term's epoch.
func (t *Term) Epoch() uint64 { return t.epoch.Load() }

// Fenced reports whether a newer primary term exists.
func (t *Term) Fenced() bool { return t.fence.Load() > t.epoch.Load() }

// Cut returns the promotion cut of the term's epoch (nil if never promoted),
// not to be modified.
func (t *Term) Cut() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut
}

// Next returns the epoch to promote a successor at: above the term's epoch
// and at or above its fence.
func (t *Term) Next() uint64 { return max(t.epoch.Load()+1, t.fence.Load()) }

// check is a log's fence check: the epoch to stamp, or ErrFenced.
func (t *Term) check() (uint64, error) {
	fence, epoch := t.fence.Load(), t.epoch.Load()
	if fence > epoch {
		return 0, fmt.Errorf("%w (epoch %d, fenced below %d)", ErrFenced, epoch, fence)
	}
	return epoch, nil
}

// Fence fences every epoch below below, in memory first — every log sharing
// the term refuses an append or sync not yet begun — then durably. An fsync
// already in flight may still complete; what it made durable was never
// acknowledged, and divergence repair truncates it. The durable write's error
// is returned; the in-memory fence holds regardless. Fencing is monotonic.
func (t *Term) Fence(below uint64) error {
	for cur := t.fence.Load(); cur < below && !t.fence.CompareAndSwap(cur, below); cur = t.fence.Load() {
	}
	if t.storage == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := ReadEpochState(t.storage)
	if err != nil || st.FenceBelow >= below {
		return err
	}
	st.FenceBelow = below
	return WriteEpochState(t.storage, st)
}

// Promote makes epoch the term's epoch, beginning at cut (EpochState.Cut): it
// refuses an epoch below the fence, in memory or on storage, writes the epoch
// and the cut in one atomic blob write, and only then publishes them.
func (t *Term) Promote(epoch uint64, cut []uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := ReadEpochState(t.storage)
	if err != nil {
		return err
	}
	if st.FenceBelow = max(st.FenceBelow, t.fence.Load()); epoch < st.FenceBelow {
		return fmt.Errorf("wal: epoch %d is below this node's fence %d", epoch, st.FenceBelow)
	}
	st.Epoch, st.Cut = epoch, cut
	if err := WriteEpochState(t.storage, st); err != nil {
		return fmt.Errorf("wal: stamp epoch %d: %w", epoch, err)
	}
	t.epoch.Store(epoch)
	t.cut = cut
	return nil
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
	// Newest segment first, and the boundary segment cut in one atomic
	// replace: a crash part-way then leaves a gap-free prefix of the old log
	// that still holds every record at or below lsn, and running the
	// truncation again finishes it. Cutting an older segment while a newer
	// one survives would leave the newer records behind a hole.
	for i := len(indexes) - 1; i >= 0; i-- {
		idx := indexes[i]
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
		if err := s.ReplaceSegment(idx, buf[:cut]); err != nil {
			return removed, err
		}
	}
	return removed, nil
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
