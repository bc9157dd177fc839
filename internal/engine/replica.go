package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/wal"
)

// This file is the replica role: a read-only database whose every container
// log mirrors one primary container's log. The replica's inner database runs
// under DurabilityWAL over the replica's own storage, so each of its logs is
// a mirror — beside a byte-for-byte copy of a primary checkpoint blob — and
// "replay the log", "mirror the log" and "promote the mirror" are one object
// seen three ways: the replica opens by running recovery's load half over its
// storage (Database.load), tails by appending the frames a wal.ShipCursor
// reads off the primary's segments to its own log (wal.Log.AppendShipped) and
// installing their records through the function recovery uses
// (Container.installRecord) — so base relations AND secondary indexes stay
// maintained — and is promoted by running recovery's finish half in place
// (PromoteReplica). Every route to a tailing shard is follow, over the
// database as it stands: open loads it first on a first bootstrap, a restart
// on an old mirror, a re-attach and a re-point that had to repair
// divergence; a clean re-point keeps it. Every checkpoint the replica takes
// from the primary — in follow or after a shipping gap in mid-run — enters
// through fastForward, one round across all shards.
//
// What to install, in what order, and when a 2PC decision frame may enter the
// mirror (so a promoted mirror never recovers a torn group) is the resolver's
// (resolve.go) — the one recovery uses, fed exactly what the mirror durably
// holds, so that closing it at promotion recovers what a restart over the
// mirror would. Under AckSemiSync the commit path waits for the mirror's
// durable watermark, so an acknowledged commit — a 2PC decision and all its
// prepares included — survives the loss of either side. Beyond that,
// correctness rests on two rules:
//
//  1. Shipping is gated by the primary's durable LSN. The failed-append
//     salvage path can leave complete orphan frames in a sealed segment, but
//     they become durable-covered only in the same fsync as their abort
//     records — so a durable-gated cursor always ships an orphan and its
//     retraction in the same poll, a mirror pass feeds them together (a
//     decision between them is safe: its retraction follows it), and the
//     resolver sees the aborts before anything from them is applied.
//
//  2. Apply rounds run under the replica database's commit gate (the same
//     exclusive lock the primary's checkpointer quiesces with), and read-only
//     transactions commit under its read side. A reader that overlaps a
//     round mid-apply fails OCC validation and retries, so every read that
//     COMMITS observed a round boundary — a consistent committed prefix of
//     the primary's history, with no torn 2PC group and no index/base
//     divergence.

// ErrReplicaRead reports a write attempted on a replica: replicas apply the
// primary's log and serve reads; writes must go to the primary.
var ErrReplicaRead = errors.New("engine: replica is read-only (writes must go to the primary)")

// ReplicaOptions configures OpenReplica.
type ReplicaOptions struct {
	// Ack selects the acknowledgment mode this replica imposes on the
	// primary's commit path (default AckAsync).
	Ack AckMode
	// Storage is the replica's own store: its inner database's durability
	// storage, laid out exactly like a primary's (one sub-store per
	// container), whose logs are the mirrors. Opening it under DurabilityWAL
	// and running Recover recovers what PromoteReplica would promote.
	// Default: a fresh in-memory store. Pass the same storage across restarts
	// to resume from the local mirror instead of re-bootstrapping.
	Storage wal.Storage
	// SegmentSize is the mirror's rotation threshold (default: the primary's).
	SegmentSize int
}

// Replica is a read-only follower of a primary Database. It maintains its own
// copy of every reactor's relations (base rows and secondary indexes) by
// shipping the primary's WAL, and serves serializable read-only transactions
// and declarative queries against its applied watermark.
//
// The handle outlives role changes: Repoint makes it follow a new primary,
// and PromoteReplica turns its database into a primary.
type Replica struct {
	// db is the read-serving inner database, whose logs are the mirrors. A
	// re-point that has to repair divergence replaces it; it is read without
	// a lock on every request a server fronting the replica runs.
	db   atomic.Pointer[Database]
	mode AckMode

	// wake is watched on every primary log (wal.Log.Watch): its one slot
	// holds a pending "a primary fsync raised a durable watermark".
	wake chan struct{}
	// stopCh and doneCh belong to the tailing loop; nil when none runs.
	stopCh chan struct{}
	doneCh chan struct{}

	// Health reads these without mu, which a poll holds across the mirror
	// fsync: the shards, published by follow and cleared by unfollow, and
	// the degraded flag and last error, written under mu.
	view     atomic.Pointer[[]*replicaShard]
	degraded atomic.Bool // mirror failed; detached from the hub
	lastErr  atomic.Pointer[error]

	// mu guards everything below against concurrent Stats/WaitCaughtUp
	// snapshots; the poll loop holds it for each full poll-mirror-apply
	// cycle.
	mu           sync.Mutex
	primary      *Database // the primary followed; nil when following none
	shards       []*replicaShard
	res          *resolver
	closed       bool // closed or promoted: no longer tailing
	rounds       uint64
	applied      uint64
	rebootstraps uint64
}

// replicaShard is the replica's view of one primary container: a cursor over
// the primary's log, and the local container whose log mirrors it.
type replicaShard struct {
	id      int
	primary *Container // primary-side container (log + storage)
	local   *Container // replica-side container (catalogs, domain, mirror log)
	cursor  *wal.ShipCursor
	scratch []wal.ShippedRecord
	// staged holds shipped frames not yet mirrored, and so not yet fed (a
	// decision frame may wait here for its participants' prepares).
	staged []wal.ShippedRecord
	// through is the primary durable LSN the cursor last shipped through:
	// once nothing is staged, the resolver's feed has passed it.
	through uint64

	blob        bool   // the mirror store holds a checkpoint blob
	lastShipped uint64 // highest LSN shipped off the primary
	// Health reads the primary log followed and the applied watermark of the
	// last round: never above the live one, so the lag is never below it.
	primaryLog atomic.Pointer[wal.Log]
	applied    atomic.Uint64
}

// OpenReplica attaches a new replica to a primary running under
// DurabilityWAL. It bootstraps each shard from the newest checkpoint blob
// (copied byte-for-byte into the mirror store), or — when opts.Storage holds
// a previous incarnation's mirror — recovers from the local mirror and
// resumes shipping where it left off. The replica starts tailing immediately
// on a background goroutine; use WaitCaughtUp to synchronize with it.
func OpenReplica(primary *Database, opts ReplicaOptions) (*Replica, error) {
	r, err := newReplica(primary, opts)
	if err != nil {
		return nil, err
	}
	r.start()
	return r, nil
}

// newReplica is OpenReplica without the tailing loop: it opens, follows the
// primary and ships nothing more until pollOnce is called.
func newReplica(primary *Database, opts ReplicaOptions) (*Replica, error) {
	if primary.cfg.Durability.Mode != DurabilityWAL {
		return nil, fmt.Errorf("engine: replication requires the primary to run under DurabilityWAL")
	}
	if primary.closed.Load() {
		return nil, errDatabaseClosed
	}
	if opts.Ack == "" {
		opts.Ack = AckAsync
	}
	if opts.Ack != AckAsync && opts.Ack != AckSemiSync {
		return nil, fmt.Errorf("engine: unknown ack mode %q", opts.Ack)
	}
	if opts.Storage == nil {
		opts.Storage = wal.NewMemStorage()
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = primary.cfg.Durability.SegmentSize
	}

	// The inner database reuses the primary's deployment shape (placement
	// must match: shipped records are applied shard-for-shard) and commit
	// queues, which no write enters until promotion. Its logs, on the
	// replica's own storage, are the mirrors; it rejects writes.
	cfg := primary.cfg
	cfg.Durability = DurabilityConfig{Mode: DurabilityWAL, Storage: opts.Storage, SegmentSize: opts.SegmentSize}
	r := &Replica{mode: opts.Ack, wake: make(chan struct{}, 1)}
	if err := r.open(primary.def, cfg); err != nil {
		return nil, err
	}
	if err := r.follow(primary); err != nil {
		r.Database().Close()
		return nil, err
	}
	return r, nil
}

// open opens the replica's database over its storage and loads the local
// checkpoint blob and mirror into a fresh resolver as recovery would.
func (r *Replica) open(def *core.DatabaseDef, cfg Config) error {
	db, err := open(def, cfg, true)
	if err != nil {
		return fmt.Errorf("engine: open replica database: %w", err)
	}
	res := newResolver(len(db.containers))
	blobs, _, err := db.load(res)
	if err != nil {
		db.Close()
		return fmt.Errorf("engine: replica bootstrap: %w", err)
	}
	shards := make([]*replicaShard, len(db.containers))
	for i, c := range db.containers {
		shards[i] = &replicaShard{id: i, local: c, blob: blobs[i]}
	}
	r.mu.Lock()
	r.shards, r.res = shards, res
	r.degraded.Store(false)
	r.lastErr.Store(nil)
	r.mu.Unlock()
	r.db.Store(db)
	return nil
}

// fail records err as the last replication error; the caller holds mu.
func (r *Replica) fail(err error) { r.lastErr.Store(&err) }

// publishApplied publishes every shard's applied watermark for Health; the
// caller holds mu.
func (r *Replica) publishApplied() {
	for _, s := range r.shards {
		s.applied.Store(r.res.applied(s.id))
	}
}

// follow brings every shard from what its database holds to tailing primary:
// seat each cursor at the mirror's last LSN (staged frames, never mirrored
// nor fed, are dropped), attach, fast-forward through the primary's newest
// checkpoint round, apply what resolved and watch the primary's logs.
func (r *Replica) follow(primary *Database) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.shards {
		// Blob and mirror cover every record up to the log's last LSN (a log
		// opens no lower than its blob's low-water mark).
		s.primary, s.staged = primary.containers[s.id], nil
		s.primaryLog.Store(s.primary.wal)
		s.lastShipped = s.local.wal.LastLSN()
		s.through = s.lastShipped
		s.cursor = wal.NewShipCursor(s.primary.walStorage, s.lastShipped)
		r.res.fedThrough(s.id, s.lastShipped)
	}
	// The primary's checkpointer is held off for the whole attach, so the
	// blobs copied are one round and nothing is truncated under it (nothing
	// here waits on a primary commit, so no semi-sync commit can deadlock a
	// checkpoint through it); before the attach it may have truncated past
	// the mirrors.
	primary.ckptMu.Lock()
	primary.repl.attach(r, r.mode, len(r.shards))
	_, err := r.fastForward()
	primary.ckptMu.Unlock()
	if err != nil {
		primary.repl.detach(r)
		return fmt.Errorf("engine: replica bootstrap: %w", err)
	}
	r.primary = primary
	if r.res.ready() {
		r.applyRound()
	}
	r.publishApplied()
	view := r.shards // a copy: open rewrites r.shards under a stale reader
	r.view.Store(&view)
	// Watching starts after the bootstrap and before the first poll, which
	// ships whatever became durable in between.
	for _, s := range r.shards {
		s.primary.wal.Watch(r.wake)
	}
	return nil
}

// start runs the tailing loop on a background goroutine until unfollow.
func (r *Replica) start() {
	r.stopCh, r.doneCh = make(chan struct{}), make(chan struct{})
	go r.run(r.stopCh, r.doneCh)
}

// unfollow stops tailing: it detaches from the primary's hub (releasing any
// semi-sync waiter), stops watching the primary's logs and stops the loop.
// It does nothing on a replica that follows no primary. Health reports an
// unbounded lag from here until follow publishes the shards again.
func (r *Replica) unfollow() {
	r.view.Store(nil)
	if r.primary == nil {
		return
	}
	r.primary.repl.detach(r)
	for _, s := range r.shards {
		s.primary.wal.Unwatch(r.wake)
	}
	if r.stopCh != nil {
		close(r.stopCh)
		<-r.doneCh
		r.stopCh, r.doneCh = nil, nil
	}
	r.mu.Lock()
	r.primary = nil
	r.mu.Unlock()
}

// fastForward is the one place a primary checkpoint enters the replica. It
// moves every shard in one step, so the resolver's floors are always one
// checkpoint round and a 2PC group is wholly covered or wholly above them (a
// shard taking a newer round alone could cover a decision another shard's
// prepare waits for, forever). The caller holds the primary's ckptMu, so the
// newest blobs are one round. Each shard whose newest blob reaches above its
// floor, or that has none yet, copies it; all are installed under the commit
// gate (rows carry tombstones and install is newest-TID-wins, so this is exact
// over stale state), the resolver takes the new floors, and each moved cursor
// is reseated: a hole lies at or below the new floor. It reports any move.
func (r *Replica) fastForward() (moved bool, err error) {
	cps := make([]*wal.Checkpoint, len(r.shards))
	for i, s := range r.shards {
		minLowLSN := uint64(0)
		if s.blob {
			minLowLSN = r.res.shards[i].floor + 1
		}
		if cps[i], err = wal.CopyLatestCheckpoint(s.primary.walStorage, s.local.walStorage, minLowLSN); err != nil {
			return false, fmt.Errorf("container %d: %w", i, err)
		}
	}
	db := r.Database()
	db.commitGate.Lock()
	defer db.commitGate.Unlock()
	floors := make([]uint64, len(r.shards))
	for i, cp := range cps {
		if cp == nil {
			continue
		}
		s := r.shards[i]
		if err := s.local.installCheckpoint(cp); err != nil {
			return false, err
		}
		s.blob, floors[i], moved = true, cp.LowLSN, true
		r.res.maxGid = max(r.res.maxGid, cp.MaxGlobalID)
		s.cursor = wal.NewShipCursor(s.primary.walStorage, s.lastShipped)
	}
	r.res.setFloors(floors)
	return moved, nil
}

// shipRetry is how soon the tailing loop polls again after a poll that
// could not ship a shard through its primary's durable watermark (a failed
// segment read, a shipping gap): no primary fsync may come to wake it.
const shipRetry = time.Millisecond

// run is the tailing loop: ship newly durable records, mirror them
// (decision-safely) and apply, then sleep until a primary fsync raises a
// durable watermark. The mirror's fsync is the batching window: primary
// fsyncs landing during a poll leave one pending wake-up, and the next poll
// ships all they covered.
func (r *Replica) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		var retry <-chan time.Time
		if !r.pollOnce() {
			retry = time.After(shipRetry)
		}
		select {
		case <-stop:
			return
		case <-r.wake:
		case <-retry:
		}
	}
}

// pollOnce is one ship → mirror → apply cycle across all shards, shipping
// each shard up to its primary log's durable watermark. An apply round runs
// only when the resolver has something to install. It reports whether every
// shard shipped through that watermark; one whose cursor failed (a segment
// read, or a gap, fast-forwarded or not) needs another poll.
func (r *Replica) pollOnce() (shippedAll bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.primary == nil {
		return true
	}
	shippedAll = true
	for _, s := range r.shards {
		durable := s.primary.wal.DurableLSN()
		recs, err := s.cursor.Poll(durable, s.scratch)
		// Records returned alongside an error are real progress the cursor
		// has committed to; dropping them would lose log records forever.
		if len(recs) > 0 {
			s.lastShipped = recs[len(recs)-1].LSN
			s.staged = append(s.staged, recs...)
		}
		s.scratch = recs[:0]
		if err != nil {
			shippedAll = false
		}
		switch {
		case err == nil:
			s.through = durable
		case errors.Is(err, wal.ErrShipGap):
			// Truncation outran this cursor (it fell behind while detached, a
			// degraded mirror): fast-forward through a checkpoint round. A
			// detached replica holds up no commit, so waiting is safe.
			r.primary.ckptMu.Lock()
			moved, ffErr := r.fastForward()
			r.primary.ckptMu.Unlock()
			switch {
			case ffErr != nil:
				r.fail(ffErr)
			case !moved:
				r.fail(fmt.Errorf("engine: replica: shipping gap on container %d that no primary checkpoint covers", s.id))
			default:
				r.rebootstraps++
			}
		default:
			r.fail(err)
		}
	}
	r.mirrorPass()
	if r.res.ready() {
		r.applyRound()
	}
	r.publishApplied()
	return shippedAll
}

// mirrorPass moves staged frames into each shard's mirror and fsyncs, then
// feeds them to the resolver — so the resolver only ever holds what the
// mirror durably holds — holding back any decision frame the resolver does
// not yet call safe (feedable). Held decisions block the frames behind them
// — the mirror must stay an ascending-LSN prefix — and are retried after the
// prepares are fed: in this pass's outer loop when they are staged, on a
// later poll when they have not shipped yet. No two held decisions wait on
// each other: the coordinator is the lowest-numbered writer, so a decision
// waits only on prepares of higher-numbered shards. Each successful sync
// advances the replication hub, releasing semi-sync commit acknowledgments.
// A degraded replica feeds what it ships without mirroring it, for read
// availability.
func (r *Replica) mirrorPass() {
	for progressed := true; progressed && !r.degraded.Load(); {
		progressed = false
		for _, s := range r.shards {
			n := r.res.feedable(s.id, s.staged)
			if n == 0 {
				continue
			}
			var err error
			for _, f := range s.staged[:n] {
				if err = s.local.wal.AppendShipped(f.LSN, f.Frame); err != nil {
					break
				}
			}
			if err == nil {
				err = s.local.wal.Sync()
			}
			if err != nil {
				// The mirror is broken: stop promising durability. Seal what is
				// already durable, keeping the close error too — Stats().Err is
				// how an operator learns *why* the replica degraded. Detaching
				// releases semi-sync waiters (degrade to async, MySQL-style)
				// and unfreezes primary truncation; the replica keeps applying
				// for read availability and re-ships after a restart.
				err = fmt.Errorf("engine: replica: mirror container %d failed, degraded to async: %w", s.id, err)
				if cerr := s.local.wal.Close(); cerr != nil {
					err = errors.Join(err, fmt.Errorf("engine: replica: seal degraded mirror container %d: %w", s.id, cerr))
				}
				r.degraded.Store(true)
				r.fail(err)
				r.primary.repl.detach(r)
				break
			}
			r.feed(s, n)
			r.primary.repl.advance(r, s.id, s.local.wal.DurableLSN())
			progressed = true
		}
	}
	for _, s := range r.shards {
		if r.degraded.Load() {
			r.feed(s, len(s.staged))
		}
		if len(s.staged) == 0 {
			r.res.fedThrough(s.id, s.through)
		}
	}
}

// feed hands shard s's first n staged frames to the resolver and unstages
// them.
func (r *Replica) feed(s *replicaShard, n int) {
	for i := range s.staged[:n] {
		r.res.feed(s.id, &s.staged[i].Record)
	}
	s.staged = slices.Delete(s.staged, 0, n) // zeroes the vacated tail
}

// applyRound installs what the resolver settled, the way recovery installs a
// replayed record, under the replica database's commit gate: holding it
// exclusively for the whole round is what makes round boundaries the only
// states a committed read can observe (rule two). A write that does not
// resolve (a placement or schema mismatch with the primary) is recorded for
// Stats and skipped; the replica keeps serving what it can.
func (r *Replica) applyRound() {
	db := r.Database()
	db.commitGate.Lock()
	n, err := db.installSettled(r.res)
	db.commitGate.Unlock()
	r.applied += uint64(n)
	r.rounds++
	if err != nil {
		r.fail(err)
	}
}

// Close stops tailing (unfollow) and closes the inner database, sealing the
// mirror logs. Staged-but-unmirrored frames are simply re-shipped by the
// next incarnation. After PromoteReplica it does nothing: the inner database
// is the promoted primary. It must not run concurrently with Repoint.
func (r *Replica) Close() {
	r.mu.Lock()
	closed := r.closed
	r.closed = true
	r.mu.Unlock()
	if !closed {
		r.unfollow()
		r.Database().Close()
	}
}

// Database returns the replica's inner read-serving database, which runs
// read-only procedures and queries against the applied watermark (a write
// fails with ErrReplicaRead) until PromoteReplica makes it the primary. A
// Repoint that has to repair divergence replaces it.
func (r *Replica) Database() *Database { return r.db.Load() }

// WaitCaughtUp blocks until every shard has shipped, mirrored and applied the
// primary's full durable prefix, or the timeout elapses. It is primarily a
// test and benchmark synchronization point; the primary should be quiescent,
// otherwise the target moves.
func (r *Replica) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.caughtUp() {
			return nil
		}
		if time.Now().After(deadline) {
			st := r.Stats()
			return fmt.Errorf("engine: replica not caught up after %v: %+v", timeout, st.Shards)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *Replica) caughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastErr.Load() != nil && r.degraded.Load() {
		return false
	}
	for _, s := range r.shards {
		durable := s.primary.wal.DurableLSN()
		if rs := &r.res.shards[s.id]; rs.fed < durable || len(rs.queue) > 0 || len(s.staged) > 0 {
			return false
		}
	}
	return true
}

// ReplicaStats is a snapshot of a replica's shipping and apply progress.
type ReplicaStats struct {
	Mode AckMode
	// Degraded reports that the mirror failed and the replica detached from
	// the primary's hub (no semi-sync promise, no truncation clamp).
	Degraded bool
	// Rounds counts apply rounds that installed something; Applied counts
	// records installed.
	Rounds  uint64
	Applied uint64
	// Rebootstraps counts checkpoint fast-forward rounds after shipping gaps.
	Rebootstraps uint64
	Err          string
	Shards       []ReplicaShardStats
}

// ReplicaShardStats describes one shard's progress against its primary
// container.
type ReplicaShardStats struct {
	Container int
	// PrimaryDurable is the primary log's durable LSN at snapshot time;
	// Shipped, Mirrored and Applied are the replica's corresponding
	// watermarks. Shipped and Mirrored are reported no lower than Floor: a
	// checkpoint fast-forward covers everything at or below the floor without
	// re-shipping it, and a raw cursor position below the floor would read as
	// the replica regressing. Lag is PrimaryDurable - Applied saturated at
	// zero: the freshness gap a read on this shard can observe.
	PrimaryDurable uint64
	Shipped        uint64
	Mirrored       uint64
	Applied        uint64
	Lag            uint64
	// Pending is the number of shipped records waiting to apply (behind a
	// prepare whose decision has not resolved); Floor is the checkpoint
	// low-water mark.
	Pending int
	Floor   uint64
}

// lagRecords is the freshness gap durable - applied, saturated at zero. The
// applied watermark can legitimately pass a sampled durable LSN: a checkpoint
// fast-forward raises it to the checkpoint floor in one step, and a mirror
// re-attached to a promoted (or otherwise restarted) primary can resume above
// that primary's durable LSN until it catches back up. The unguarded uint64
// subtraction wraps those cases to ~2^64, and a lag-aware router consuming
// Stats would route around a healthy replica forever.
func lagRecords(durable, applied uint64) uint64 {
	if durable <= applied {
		return 0
	}
	return durable - applied
}

// Health returns the replica's freshness gap — the largest lag over its
// shards, against the last round's applied watermarks — whether it is
// degraded, and its last replication error, without allocating or waiting
// on a poll: a server reads it on every bounded read. A replica that follows
// no primary (inside Repoint, or closed) reports the lag math.MaxUint64.
func (r *Replica) Health() (lag uint64, degraded bool, err error) {
	if view := r.view.Load(); view == nil {
		lag = math.MaxUint64
	} else {
		for _, s := range *view {
			lag = max(lag, lagRecords(s.primaryLog.Load().DurableLSN(), s.applied.Load()))
		}
	}
	if p := r.lastErr.Load(); p != nil {
		err = *p
	}
	return lag, r.degraded.Load(), err
}

// Stats returns a consistent snapshot of the replica's progress.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplicaStats{
		Mode:         r.mode,
		Degraded:     r.degraded.Load(),
		Rounds:       r.rounds,
		Applied:      r.applied,
		Rebootstraps: r.rebootstraps,
	}
	if p := r.lastErr.Load(); p != nil {
		st.Err = (*p).Error()
	}
	for _, s := range r.shards {
		durable, rs := s.primary.wal.DurableLSN(), &r.res.shards[s.id]
		applied := r.res.applied(s.id)
		st.Shards = append(st.Shards, ReplicaShardStats{
			Container:      s.id,
			PrimaryDurable: durable,
			Shipped:        max(s.lastShipped, rs.floor),
			Mirrored:       max(s.local.wal.DurableLSN(), rs.floor),
			Applied:        applied,
			Lag:            lagRecords(durable, applied),
			Pending:        len(rs.queue),
			Floor:          rs.floor,
		})
	}
	return st
}
