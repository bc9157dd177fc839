package wal

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/stats"
)

// Options configure a Log.
type Options struct {
	// SegmentSize is the byte size at which the active segment is sealed and
	// a new one started (default 1 MiB). A batch is never split across
	// segments: rotation happens between batches, so every segment holds
	// whole records.
	SegmentSize int
	// Term is the node's failover term, shared by its every log: records
	// carry its epoch, and while it is fenced appends and syncs fail with
	// ErrFenced. nil means epoch 0, never fenced.
	Term *Term
}

// DefaultSegmentSize is used when Options.SegmentSize is zero.
const DefaultSegmentSize = 1 << 20

// Log is an append-only segmented write-ahead log. Append assigns LSNs and
// buffers frames into the active segment; Sync makes everything appended so
// far durable with one fsync. Concurrent Sync callers batch: whoever fsyncs
// first covers every record appended before it, and later callers whose
// records are already durable return without touching the disk (group-fsync
// absorption). The watermarks are written under mu but read without it, so
// LastLSN, DurableLSN and an absorbed Sync never wait out an fsync in flight.
type Log struct {
	storage Storage
	segSize int

	appended atomic.Uint64 // last LSN appended
	durable  atomic.Uint64 // last LSN made durable by fsync
	// refusing is set while the log is closed or wedged, so the lock-free
	// absorbed Sync refuses too (as it does while the term is fenced).
	refusing atomic.Bool
	absorbed atomic.Uint64 // Sync calls satisfied by an earlier fsync

	mu        sync.Mutex
	active    SegmentFile // nil until the first append (lazy creation)
	activeIdx uint64
	nextIdx   uint64 // index the next created segment will get
	activeLen int
	unsynced  int // bytes appended since the last successful fsync
	closed    bool
	broken    error // set on a failed segment write: the tail may be torn

	// term is Options.Term, only read here: a fence never takes mu, so it
	// does not wait out an fsync in flight.
	term *Term

	// stats (guarded by mu except the histograms, which are internally atomic)
	appends         uint64
	appendedBytes   uint64
	fsyncs          uint64
	segments        uint64
	truncations     uint64
	segmentsDeleted uint64
	fsyncLat        *stats.Histogram
	flushBytes      *stats.Histogram

	// watchers are woken after every fsync that raises durable (Watch). They
	// have their own lock, never mu, so registering and unregistering never
	// wait out an fsync in flight.
	watchMu  sync.Mutex
	watchers []chan<- struct{}
}

// Open opens a log on the given storage: it finds the last assigned LSN (the
// tail of the existing segments, or the newest checkpoint's low-water mark if
// that is higher) so new appends continue the sequence. The active segment is
// created lazily on first append, so an idle restart does not accumulate empty
// segment files.
func Open(storage Storage, opts Options) (*Log, error) {
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	l := &Log{
		storage:    storage,
		segSize:    segSize,
		term:       cmp.Or(opts.Term, new(Term)),
		fsyncLat:   stats.NewHistogram(stats.DurationBounds()),
		flushBytes: stats.NewHistogram(stats.ByteBounds()),
	}
	indexes, err := storage.List()
	if err != nil {
		return nil, err
	}
	if len(indexes) > 0 {
		last := indexes[len(indexes)-1]
		l.nextIdx = last + 1
		// A predecessor killed mid-run may have left its final segment's
		// tail in the page cache, never fsynced; make it durable before
		// treating recovered records as such, or a later machine crash could
		// erase records that post-restart commits were built on. Segments
		// before the last were fsynced at rotation.
		if err := storage.SyncSegment(last); err != nil {
			return nil, err
		}
	}
	_, tail, err := tailSegment(storage, indexes)
	if err != nil {
		return nil, err
	}
	// A checkpoint may cover — and truncation may have deleted — every record
	// the tail scan could find, yet new LSNs must still ascend past whatever
	// the newest durable checkpoint claims covered: recovery skips records at
	// or below its low-water mark, so restarting the sequence underneath it
	// would silently drop post-restart commits — which is why a failure to
	// list or read the checkpoints fails Open instead of reading as "none". A
	// replica mirror has exactly this shape, a copied blob beside a log that
	// holds nothing above it yet: promoted, it appends above LowLSN; reopened
	// by a replica, it resumes shipping there, not below what the blob covers.
	cp, err := LatestCheckpointHeader(storage)
	if err != nil {
		return nil, fmt.Errorf("wal: open: newest checkpoint: %w", err)
	}
	if cp != nil {
		tail = max(tail, cp.LowLSN)
	}
	l.appended.Store(tail)
	l.durable.Store(tail) // everything recovered from storage is durable
	return l, nil
}

// tailSegment is the one backward scan, and so the one statement of what a
// log's tail means: LSNs ascend across segments, so the newest segment holding
// any decodable record carries the highest LSN, and a torn frame ends that
// segment's valid prefix. Given the log's segment indexes (Storage.List) it
// returns that segment's index and that LSN, or a zero LSN (none is ever
// assigned) for a log holding no record at all.
func tailSegment(s Storage, indexes []uint64) (idx, lsn uint64, err error) {
	for i := len(indexes) - 1; i >= 0 && lsn == 0; i-- {
		buf, err := s.ReadSegment(indexes[i])
		if err != nil {
			return 0, 0, err
		}
		for it := frames(buf, 0); it.next(); {
			idx, lsn = indexes[i], max(lsn, it.rec.LSN)
		}
	}
	return idx, lsn, nil
}

// TailLSN returns the highest decodable LSN physically present in a log's
// segments (0 for an empty or missing log), without opening the log: what
// Open starts from, and what failover compares two nodes' logs by.
func TailLSN(s Storage) (uint64, error) {
	indexes, err := s.List()
	if err != nil {
		return 0, err
	}
	_, lsn, err := tailSegment(s, indexes)
	return lsn, err
}

// refreshRefusingLocked republishes refusing after closed or broken changed.
func (l *Log) refreshRefusingLocked() {
	l.refusing.Store(l.closed || l.broken != nil)
}

// usableLocked refuses a closed log, and one wedged by a failed write: its
// tail may hold torn or retraction-less frames.
func (l *Log) usableLocked() error {
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log wedged after failed write: %w", l.broken)
	}
	return nil
}

// ensureActiveLocked lazily creates the active segment.
func (l *Log) ensureActiveLocked() error {
	if l.active != nil {
		return nil
	}
	active, err := l.storage.Create(l.nextIdx)
	if err != nil {
		return err
	}
	l.active = active
	l.activeIdx = l.nextIdx
	l.nextIdx++
	l.activeLen = 0
	l.segments++
	return nil
}

// Append appends one commit record, assigning its LSN. The record is durable
// only after a subsequent Sync returns nil.
func (l *Log) Append(rec Record) (uint64, error) {
	return l.AppendBatch([]Record{rec})
}

// AppendBatch appends a batch of commit records with consecutive LSNs and
// returns the last LSN assigned. One buffer is encoded and one write issued
// for the whole batch.
func (l *Log) AppendBatch(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	epoch, err := l.term.check()
	if err != nil {
		return 0, err
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	// The appended watermark (and with it the durable fast path in Sync)
	// advances only after the bytes hit the segment: rotation fsyncs the old
	// segment and sets durable to the watermark, so counting this batch's
	// LSNs early would let a rotation-triggering append's Sync be absorbed
	// without its bytes ever being fsynced.
	lsn := l.appended.Load()
	var buf []byte
	for i := range recs {
		lsn++
		recs[i].LSN = lsn
		recs[i].Epoch = epoch
		buf = appendFrame(buf, &recs[i])
	}
	if l.activeLen > 0 && l.activeLen+len(buf) > l.segSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.active.Write(buf); err != nil {
		// The segment tail may now hold a torn partial frame — or worse,
		// complete leading frames of a batch whose transactions are about to
		// be aborted. Burn the failed LSNs (retractions must sort after any
		// orphan frame carrying them), then best effort: seal this segment
		// and retract the whole batch on a fresh one, so neither a later
		// fsync nor the next Open's tail adoption can resurrect aborted
		// transactions, and the log can keep serving. If the retraction
		// fails too, wedge: every further append and sync fails until a
		// restart cuts the tail.
		l.appended.Store(lsn)
		if rerr := l.retractBatchLocked(recs); rerr != nil {
			l.broken = err
			l.refreshRefusingLocked()
		}
		return 0, err
	}
	l.appended.Store(lsn)
	l.activeLen += len(buf)
	l.unsynced += len(buf)
	l.appends += uint64(len(recs))
	l.appendedBytes += uint64(len(buf))
	return lsn, nil
}

// rotateLocked seals the active segment (fsyncing its contents so a sealed
// segment is always fully durable) and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	return l.ensureActiveLocked()
}

// retractBatchLocked is the failed-append salvage path: it seals the segment
// whose write just failed — deliberately *without* fsyncing it, since its
// tail (torn bytes, possibly complete leading frames of the failed batch)
// need never become durable — and appends + fsyncs one abort record per
// batch member on a fresh segment. The retraction is durable before
// AppendBatch reports the failure, so in every crash or restart in which an
// orphan frame survives, its abort record has survived too. If this salvage
// itself fails the log wedges and this process never fsyncs the tail; only
// OS write-back after a process kill can then leak an orphan frame (the
// documented in-doubt window for unsalvageable log failures).
func (l *Log) retractBatchLocked(recs []Record) error {
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	if err := l.ensureActiveLocked(); err != nil {
		return err
	}
	var buf []byte
	for _, r := range recs {
		ab := Record{LSN: l.appended.Add(1), TID: r.TID, Kind: KindAbort, Epoch: l.term.Epoch()}
		buf = appendFrame(buf, &ab)
	}
	if _, err := l.active.Write(buf); err != nil {
		return err
	}
	l.activeLen += len(buf)
	l.unsynced += len(buf)
	l.appends += uint64(len(recs))
	l.appendedBytes += uint64(len(buf))
	return l.fsyncLocked()
}

// Sync makes every appended record durable. A call whose records were already
// covered by an earlier fsync returns immediately without touching storage.
func (l *Log) Sync() error { return l.SyncThrough(l.appended.Load()) }

// SyncThrough makes every record up to lsn durable, fsyncing everything
// appended when it must. A call that an earlier fsync already covers is
// absorbed without taking the log's lock, so it does not wait out an fsync in
// flight; a closed, wedged or fenced log refuses it all the same.
func (l *Log) SyncThrough(lsn uint64) error {
	if !l.refusing.Load() && !l.term.Fenced() && l.durable.Load() >= lsn {
		l.absorbed.Add(1)
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if _, err := l.term.check(); err != nil {
		// A fenced log refuses to make its tail durable: the unsynced suffix
		// was never acknowledged, the cluster has promoted past it, and
		// fsyncing it now would only widen the divergence a re-attach must
		// truncate.
		return err
	}
	if l.durable.Load() >= lsn {
		l.absorbed.Add(1)
		return nil
	}
	return l.fsyncLocked()
}

// fsyncLocked issues one fsync covering everything appended so far. A
// wedged log refuses: its tail may hold torn or retraction-less frames of
// transactions already reported as failed, and fsyncing them (even from
// Close) could make recovery resurrect those transactions.
func (l *Log) fsyncLocked() error {
	if l.broken != nil {
		return fmt.Errorf("wal: log wedged after failed write: %w", l.broken)
	}
	appended := l.appended.Load()
	if l.durable.Load() >= appended && l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	err := l.active.Sync()
	l.fsyncLat.ObserveDuration(time.Since(start))
	if err != nil {
		return err
	}
	l.fsyncs++
	l.flushBytes.Observe(float64(l.unsynced))
	l.unsynced = 0
	l.durable.Store(appended)
	l.watchMu.Lock()
	for _, ch := range l.watchers {
		select {
		case ch <- struct{}{}:
		default: // a wake-up is already pending; it covers this fsync too
		}
	}
	l.watchMu.Unlock()
	return nil
}

// Watch registers ch to receive a non-blocking send after every fsync that
// raises DurableLSN — a sync, a rotation, a failed append's retraction or
// Close: the one place the durable watermark moves. A send finding ch full is
// dropped, so a 1-slot channel coalesces the fsyncs between two reads of it,
// and a slow watcher never holds up a commit. A replica tailing the log
// watches it to ship what each fsync made durable.
func (l *Log) Watch(ch chan<- struct{}) {
	l.watchMu.Lock()
	l.watchers = append(l.watchers, ch)
	l.watchMu.Unlock()
}

// Unwatch removes a channel registered with Watch. It does not wait for an
// fsync in flight.
func (l *Log) Unwatch(ch chan<- struct{}) {
	l.watchMu.Lock()
	l.watchers = slices.DeleteFunc(l.watchers, func(w chan<- struct{}) bool { return w == ch })
	l.watchMu.Unlock()
}

// Cover raises the log's last LSN to lsn when it is lower, with everything up
// to it durable: a checkpoint beside the log covers those records, so the next
// append continues above it, where Open would start the log. What the log
// holds unsynced is forced first.
func (l *Log) Cover(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.appended.Load() {
		return nil
	}
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	l.appended.Store(lsn)
	l.durable.Store(lsn)
	return nil
}

// LastLSN returns the highest LSN assigned (appended), durable or not.
func (l *Log) LastLSN() uint64 { return l.appended.Load() }

// DurableLSN returns the highest LSN covered by a successful fsync.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// Replay iterates every decodable committed record in LSN order. A torn or
// corrupt frame ends that *segment's* valid prefix but not the whole
// iteration: a crash leaves a torn tail in what was then the final segment,
// and after a restart later segments hold newer acknowledged commits that
// must still be replayed (within one process run everything before the
// active segment was fsynced at rotation, so a torn frame can only ever be a
// crash artifact of an earlier incarnation's tail).
//
// Replay runs two passes: the first collects abort records — retractions of
// commit, prepare or decision records whose transaction failed (or was
// presumed aborted by an earlier recovery) after this log received them —
// and the second streams every record that was not retracted, including
// prepare and decision records: resolving undecided prepares against the
// coordinator's decisions is the caller's job. Retraction is LSN-ordered: an
// abort record only retracts records appended *before* it, so if a later
// incarnation reuses a retracted TID (per-epoch sequence numbers restart),
// the newer acknowledged commit is not silently dropped. It must be called before this Log instance appends
// new records — in practice, immediately after Open during recovery. A
// non-nil error from fn aborts the iteration and is returned.
func (l *Log) Replay(fn func(Record) error) error {
	indexes, err := l.storage.List()
	if err != nil {
		return err
	}
	var retracted map[uint64]uint64 // TID -> highest abort-record LSN
	scan := func(visit func(Record) error) error {
		for _, idx := range indexes {
			buf, err := l.storage.ReadSegment(idx)
			if err != nil {
				return err
			}
			for it := frames(buf, 0); it.next(); {
				if err := visit(it.rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := scan(func(rec Record) error {
		if rec.Kind == KindAbort {
			if retracted == nil {
				retracted = make(map[uint64]uint64)
			}
			if rec.LSN > retracted[rec.TID] {
				retracted[rec.TID] = rec.LSN
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return scan(func(rec Record) error {
		if rec.Kind == KindAbort || retracted[rec.TID] > rec.LSN {
			return nil
		}
		return fn(rec)
	})
}

// TruncateBelow deletes sealed segments every decodable record of which has
// LSN <= lsn, in ascending order, and reports how many were deleted. It is
// the checkpointer's space-reclamation step and must only be called once a
// checkpoint covering lsn is durable: after it, records at or below lsn may
// be gone from the log forever.
//
// Safety rails: the active segment is never deleted (it is still being
// written), and neither is the newest segment holding any decodable record —
// even when everything in it is below the mark — so a reopened log always
// rediscovers its LSN watermark from storage and never reissues an LSN that a
// checkpoint already classified as captured. Deletion scans segments in
// order and stops at the first one carrying a record above the mark; LSNs
// ascend across segments, so everything beyond it is above the mark too. A
// segment that fails to delete stops the scan and returns the error: the
// next checkpoint simply retries, and recovery is correct with any subset of
// the deletions applied (replay skips below-mark records by LSN, not by
// segment).
func (l *Log) TruncateBelow(lsn uint64) (int, error) {
	l.mu.Lock()
	err := l.usableLocked()
	hasActive, activeIdx := l.active != nil, l.activeIdx
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}

	indexes, err := l.storage.List()
	if err != nil {
		return 0, err
	}
	if len(indexes) == 0 {
		return 0, nil
	}
	// keep is the lowest index that must survive regardless of LSNs.
	keep := indexes[len(indexes)-1]
	if hasActive && activeIdx < keep {
		keep = activeIdx
	} else if !hasActive {
		// No active segment (nothing appended since Open): keep the newest
		// segment with a decodable record, which carries the LSN watermark.
		idx, tail, err := tailSegment(l.storage, indexes)
		if err != nil {
			return 0, err
		}
		if tail > 0 {
			keep = idx
		}
	}

	deleted := 0
	for _, idx := range indexes {
		if idx >= keep {
			break
		}
		buf, err := l.storage.ReadSegment(idx)
		if err != nil {
			return deleted, err
		}
		// A torn tail of a crashed predecessor ends the scan of this segment;
		// its frames never committed.
		above := false
		for it := frames(buf, 0); !above && it.next(); {
			above = it.rec.LSN > lsn
		}
		if above {
			break
		}
		if err := l.storage.DeleteSegment(idx); err != nil {
			return deleted, err
		}
		deleted++
	}
	if deleted > 0 {
		l.mu.Lock()
		l.truncations++
		l.segmentsDeleted += uint64(deleted)
		l.mu.Unlock()
	}
	return deleted, nil
}

// Close fsyncs and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.refreshRefusingLocked()
	if l.active == nil {
		return nil
	}
	err := l.fsyncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a snapshot of the log's activity counters and distributions.
type Stats struct {
	// Appends counts records appended; AppendedBytes the encoded bytes.
	Appends       uint64
	AppendedBytes uint64
	// Fsyncs counts physical fsyncs issued; SyncsAbsorbed counts Sync calls
	// satisfied by an earlier fsync (the group-fsync amortization win).
	Fsyncs        uint64
	SyncsAbsorbed uint64
	// Segments counts segments created by this Log instance.
	Segments uint64
	// Truncations counts TruncateBelow calls that deleted at least one
	// segment; SegmentsDeleted counts the segments they reclaimed.
	Truncations     uint64
	SegmentsDeleted uint64
	// FsyncLatency is the distribution of fsync call latencies (nanoseconds);
	// BytesPerFlush the distribution of bytes made durable per fsync.
	FsyncLatency  stats.HistogramSnapshot
	BytesPerFlush stats.HistogramSnapshot
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Appends:         l.appends,
		AppendedBytes:   l.appendedBytes,
		Fsyncs:          l.fsyncs,
		SyncsAbsorbed:   l.absorbed.Load(),
		Segments:        l.segments,
		Truncations:     l.truncations,
		SegmentsDeleted: l.segmentsDeleted,
	}
	l.mu.Unlock()
	s.FsyncLatency = l.fsyncLat.Snapshot()
	s.BytesPerFlush = l.flushBytes.Snapshot()
	return s
}
