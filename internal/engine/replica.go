package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// This file is the replica role: a read-only database whose every shard keeps
// a mirror of one primary container's log. The mirror is a log — a wal.Log on
// the replica's own storage, beside a byte-for-byte copy of a primary
// checkpoint blob — so "replay the log", "mirror the log" and "promote the
// mirror" are one object seen three ways: a shard opens by installing its blob
// and replaying its mirror exactly as recovery would, tails by appending the
// frames a wal.ShipCursor reads off the primary's segments
// (wal.Log.AppendShipped) and installing their records through the function
// recovery uses (Container.installRecord) — so base relations AND secondary
// indexes stay maintained — and is promoted by opening its storage as a
// normal database and running Recover. Every route to a tailing shard (first
// bootstrap, restart on an old mirror, re-point, re-attach, a shipping gap in
// mid-run) is openShard or its second half, fastForward.
//
// Correctness rests on four rules:
//
//  1. Shipping is gated by the primary's durable LSN. The failed-append
//     salvage path can leave complete orphan frames in a sealed segment, but
//     they become durable-covered only in the same fsync as their abort
//     records — so a durable-gated cursor always ships an orphan and its
//     retraction in the same poll, and the applier registers a poll's aborts
//     before applying anything from it.
//
//  2. Apply order per shard is FIFO for commits: a commit record never jumps
//     anything ahead of it, so a commit that read a 2PC participant's write
//     can never install before that participant's prepare resolves. Prepares
//     wait for their decision and are then applied group-atomically across
//     shards; out-of-order installs converge because every install is
//     newest-TID-wins (the same property log replay relies on).
//
//  3. A group applies only behind its fence: the vector of primary durable
//     LSNs captured when its decision was shipped. A participant's prepare is
//     durable before the decision is appended, so once each shard's shipped
//     prefix passes the fence, a missing prepare proves the participant was
//     read-only or its prepare is covered by the bootstrap checkpoint — never
//     that it is still in flight.
//
//  4. Apply rounds run under the replica database's commit gate (the same
//     exclusive lock the primary's checkpointer quiesces with), and read-only
//     transactions commit under its read side. A reader that overlaps a
//     round mid-apply fails OCC validation and retries, so every read that
//     COMMITS observed a round boundary — a consistent committed prefix of
//     the primary's history, with no torn 2PC group and no index/base
//     divergence.
//
// For promotion safety the mirror adds one more invariant: a decision frame
// is never fsynced into the mirror before every participant prepare it
// decides is durably mirrored on its own shard (same-shard prepares precede
// the decision in the segment, so a torn tail can only lose the decision
// first). Recovery on a crashed mirror therefore never commits a torn group.
// Under AckSemiSync the commit path waits for exactly this mirror watermark,
// so an acknowledged commit — including a 2PC decision and all its prepares —
// survives the loss of either side.

// ErrReplicaRead reports a write attempted on a replica: replicas apply the
// primary's log and serve reads; writes must go to the primary.
var ErrReplicaRead = errors.New("engine: replica is read-only (writes must go to the primary)")

// ReplicaOptions configures OpenReplica.
type ReplicaOptions struct {
	// Ack selects the acknowledgment mode this replica imposes on the
	// primary's commit path (default AckAsync).
	Ack AckMode
	// PollInterval is how often the replica polls the primary's logs for new
	// durable records (default 500µs).
	PollInterval time.Duration
	// Storage is the replica's own mirror store, laid out exactly like a
	// primary's durability storage (one sub-store per container) so the
	// replica can be promoted by opening this storage under DurabilityWAL
	// and running Recover. Default: a fresh in-memory store. Pass the same
	// storage across restarts to resume from the local mirror instead of
	// re-bootstrapping.
	Storage wal.Storage
	// SegmentSize is the mirror's rotation threshold (default: the primary's).
	SegmentSize int
}

// Replica is a read-only follower of a primary Database. It maintains its own
// copy of every reactor's relations (base rows and secondary indexes) by
// shipping the primary's WAL, and serves serializable read-only transactions
// and declarative queries against its applied watermark.
type Replica struct {
	primary *Database
	db      *Database // the read-serving inner database
	mode    AckMode
	poll    time.Duration
	storage wal.Storage
	segSize int

	shards    []*replicaShard
	decisions map[uint64]*groupDecision // in-flight 2PC groups by global id

	stopCh chan struct{}
	doneCh chan struct{}

	// mu guards everything below plus the shipping state above against
	// concurrent Stats/WaitCaughtUp snapshots; the poll loop holds it for
	// each full poll-mirror-apply cycle.
	mu           sync.Mutex
	closed       bool
	degraded     bool // mirror failed; detached from the hub
	lastErr      error
	rounds       uint64
	applied      uint64
	rebootstraps uint64
}

// replicaShard is the replica's view of one primary container: a cursor over
// the primary's log, a mirror of its own, and the apply queue.
type replicaShard struct {
	id      int
	primary *Container // primary-side container (log + storage)
	local   *Container // replica-side container (catalogs + domain)
	sub     wal.Storage
	cursor  *wal.ShipCursor
	mirror  *wal.Log
	scratch []wal.ShippedRecord

	// queue holds shipped commit and prepare records awaiting apply, in
	// ascending LSN order. staged holds shipped frames not yet durably
	// mirrored (a decision frame may wait here for its participants'
	// prepares — rule four above).
	queue  []wal.Record
	staged []wal.ShippedRecord

	// retracted maps a TID to the highest abort LSN seen for it: a record is
	// void iff an abort with a higher LSN carries its TID (the log's
	// LSN-ordered retraction rule). preparedMirrored marks global ids whose
	// prepare on this shard is durably mirrored.
	retracted        map[uint64]uint64
	preparedMirrored map[uint64]bool

	floor         uint64 // checkpoint low-water mark: records at or below are covered
	lastShipped   uint64 // highest LSN shipped off the primary (staged or queued)
	polledDurable uint64 // primary durable LSN whose full prefix has been shipped
	appliedTo     uint64 // watermark: state reflects every LSN at or below this
	appliedRecs   uint64
}

// groupDecision tracks one 2PC group from the moment its decision record is
// seen until it is applied and mirrored.
type groupDecision struct {
	participants []uint64
	tid, lsn     uint64 // the decision record's TID and LSN (coordinator log)
	shard        int    // coordinator shard
	// fence is the per-shard primary durable LSN captured when the decision
	// was shipped; the group applies only once every shard's shipped prefix
	// passes it. nil for decisions recovered from the mirror, whose prepares
	// are local by construction.
	fence    []uint64
	applied  bool
	mirrored bool
	aborted  bool
}

// OpenReplica attaches a new replica to a primary running under
// DurabilityWAL. It bootstraps each shard from the newest checkpoint blob
// (copied byte-for-byte into the mirror store), or — when opts.Storage holds
// a previous incarnation's mirror — recovers from the local mirror and
// resumes shipping where it left off. The replica starts tailing immediately
// on a background goroutine; use WaitCaughtUp to synchronize with it.
func OpenReplica(primary *Database, opts ReplicaOptions) (*Replica, error) {
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
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Microsecond
	}
	if opts.Storage == nil {
		opts.Storage = wal.NewMemStorage()
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = primary.cfg.Durability.SegmentSize
	}

	// The inner database reuses the primary's deployment shape (placement
	// must match: shipped records are applied shard-for-shard) but owns no
	// WAL — the replica manages the mirror itself — and rejects writes.
	cfg := primary.cfg
	cfg.Durability = DurabilityConfig{Mode: DurabilityModeled}
	cfg.GroupCommit = GroupCommitConfig{}
	cfg.Costs.LogWrite = 0 // read-only commits must not pay a modeled log write
	cfg.replica = true
	inner, err := Open(primary.def, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: open replica database: %w", err)
	}

	r := &Replica{
		primary:   primary,
		db:        inner,
		mode:      opts.Ack,
		poll:      opts.PollInterval,
		storage:   opts.Storage,
		segSize:   opts.SegmentSize,
		decisions: make(map[uint64]*groupDecision),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	// Attach before reading any primary state: an attached replica clamps
	// checkpoint truncation to its shipped floor (initially zero), so nothing
	// can be deleted out from under the bootstrap.
	primary.repl.attach(r, opts.Ack, len(primary.containers))

	for i, pc := range primary.containers {
		s := &replicaShard{
			id:               i,
			primary:          pc,
			local:            inner.containers[i],
			sub:              opts.Storage.Sub(fmt.Sprintf("container-%d", i)),
			retracted:        make(map[uint64]uint64),
			preparedMirrored: make(map[uint64]bool),
		}
		if err := r.openShard(s); err != nil {
			primary.repl.detach(r)
			inner.Close()
			return nil, fmt.Errorf("engine: replica bootstrap container %d: %w", i, err)
		}
		r.shards = append(r.shards, s)
	}
	// Resolve whatever the mirror replay queued (groups whose decisions were
	// already mirrored) before serving the first read.
	r.mu.Lock()
	r.applyRound()
	r.mu.Unlock()

	go r.run()
	return r, nil
}

// openShard brings one shard from whatever its storage holds to tailing:
// install the local checkpoint blob if there is one, open the mirror log,
// replay it into the pending queue, seat the cursor after it, and fast-forward
// through the primary's newest checkpoint where that is needed.
func (r *Replica) openShard(s *replicaShard) error {
	cp, _, err := wal.LatestCheckpoint(s.sub)
	if err != nil {
		return err
	}
	if cp != nil {
		if err := s.local.installCheckpoint(cp); err != nil {
			return err
		}
		s.floor = cp.LowLSN
	}
	if s.mirror, err = wal.Open(s.sub, wal.Options{SegmentSize: r.segSize}); err != nil {
		return err
	}
	if err := r.replayMirror(s); err != nil {
		return err
	}
	// Blob and mirror cover every record up to the log's last LSN (wal.Open
	// starts it no lower than the blob's low-water mark). A shard without a
	// blob takes whatever checkpoint the primary has. A shard with one needs
	// the primary's only if that reaches further: while this replica was down
	// the primary may have checkpointed and truncated past it. (While attached
	// it cannot — truncation is clamped to the replication floor.)
	s.lastShipped = s.mirror.LastLSN()
	s.cursor = wal.NewShipCursor(s.primary.walStorage, s.lastShipped)
	minLowLSN := s.lastShipped + 1
	if cp == nil {
		minLowLSN = 0
	}
	if _, err := r.fastForward(s, minLowLSN); err != nil {
		return err
	}
	// Opening ships a full prefix by itself — the blob up to the floor, the
	// replayed mirror up to lastShipped, both durable on the primary — so a
	// shard with no newer primary traffic is caught up before its first poll.
	s.polledDurable = max(s.floor, s.lastShipped)
	return nil
}

// fastForward is the one place a primary checkpoint enters a shard: if the
// primary's newest reaches at least minLowLSN, copy the blob into the shard's
// storage, install it over the current state under the commit gate (checkpoint
// rows carry tombstones and install is newest-TID-wins, so installing over
// stale state is exact), raise the floor and the applied watermark to its
// low-water mark, and seat a new cursor after the last shipped LSN — whatever a
// hole swallowed is at or below the new floor. It reports whether it did; if
// not, nothing changed.
func (r *Replica) fastForward(s *replicaShard, minLowLSN uint64) (bool, error) {
	cp, err := wal.CopyLatestCheckpoint(s.primary.walStorage, s.sub, minLowLSN)
	if cp == nil || err != nil {
		return false, err
	}
	r.db.commitGate.Lock()
	defer r.db.commitGate.Unlock()
	if err := s.local.installCheckpoint(cp); err != nil {
		return false, err
	}
	// A stale applied watermark would overstate Stats' Lag by the width of the
	// hole until the next apply round with pending work.
	s.floor = max(s.floor, cp.LowLSN)
	s.appliedTo = max(s.appliedTo, s.floor)
	s.cursor = wal.NewShipCursor(s.primary.walStorage, s.lastShipped)
	return true, nil
}

// replayMirror rebuilds shipping state from the shard's mirror, before
// anything is appended to it: decisions re-register (fence-free — the
// mirror-safety invariant guarantees their prepares are local too), and
// commits and prepares above the floor re-enter the apply queue in LSN order.
// Abort records and what they retract never reach the callback (wal.Log.Replay
// drops both). Nothing is applied here; the caller runs an apply round once
// every shard is replayed.
func (r *Replica) replayMirror(s *replicaShard) error {
	return s.mirror.Replay(func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindDecision:
			if _, ok := r.decisions[rec.GlobalID]; !ok {
				r.decisions[rec.GlobalID] = &groupDecision{
					participants: append([]uint64(nil), rec.Participants...),
					tid:          rec.TID,
					lsn:          rec.LSN,
					shard:        s.id,
					mirrored:     true,
				}
			}
			return nil
		case wal.KindPrepare:
			s.preparedMirrored[rec.GlobalID] = true
		}
		if rec.LSN > s.floor {
			s.queue = append(s.queue, rec)
		}
		return nil
	})
}

// run is the tailing loop: every poll interval, ship newly durable records,
// mirror them (decision-safely), and apply.
func (r *Replica) run() {
	defer close(r.doneCh)
	ticker := time.NewTicker(r.poll)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
			r.pollOnce()
		}
	}
}

// pollOnce is one ship → mirror → apply cycle across all shards.
func (r *Replica) pollOnce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, s := range r.shards {
		durable := s.primary.wal.DurableLSN()
		recs, err := s.cursor.Poll(durable, s.scratch)
		// Records returned alongside an error are real progress the cursor
		// has committed to; dropping them would lose log records forever.
		for i := range recs {
			r.registerShipped(s, &recs[i])
		}
		s.scratch = recs[:0]
		switch {
		case err == nil:
			s.polledDurable = durable
		case errors.Is(err, wal.ErrShipGap):
			// Truncation outran this cursor (the replica fell behind while
			// detached, or raced a checkpoint before its floor registered).
			// What it deleted lies below a checkpoint; fast-forward through it.
			switch moved, ffErr := r.fastForward(s, s.lastShipped+1); {
			case ffErr != nil:
				r.lastErr = ffErr
			case !moved:
				r.lastErr = fmt.Errorf("engine: replica: shipping gap on container %d that no primary checkpoint covers", s.id)
			default:
				r.rebootstraps++
			}
		default:
			r.lastErr = err
		}
	}
	r.mirrorPass()
	if r.pendingWork() {
		r.applyRound()
	}
}

// registerShipped stages one shipped record for mirroring and routes it into
// the apply machinery: aborts update the retraction map (before anything from
// this poll is applied — see rule one), decisions register their group with a
// freshly captured fence, commits and prepares join the shard's apply queue.
func (r *Replica) registerShipped(s *replicaShard, sr *wal.ShippedRecord) {
	s.lastShipped = sr.LSN
	s.staged = append(s.staged, *sr)
	switch sr.Kind {
	case wal.KindAbort:
		if sr.LSN > s.retracted[sr.TID] {
			s.retracted[sr.TID] = sr.LSN
		}
	case wal.KindDecision:
		if _, ok := r.decisions[sr.GlobalID]; ok {
			return // already known (mirror recovery overlap)
		}
		// The fence: each participant's prepare was durable on its shard
		// before this decision was appended, so every per-shard durable LSN
		// read *now* bounds those prepares from above.
		fence := make([]uint64, len(r.shards))
		for i, o := range r.shards {
			fence[i] = o.primary.wal.DurableLSN()
		}
		r.decisions[sr.GlobalID] = &groupDecision{
			participants: append([]uint64(nil), sr.Participants...),
			tid:          sr.TID,
			lsn:          sr.LSN,
			shard:        s.id,
			fence:        fence,
		}
	default: // commit or prepare
		s.queue = append(s.queue, sr.Record)
	}
}

// mirrorPass writes staged frames into each shard's mirror and fsyncs,
// holding back any decision frame whose participant prepares are not yet
// durably mirrored (the promotion-safety invariant). Held decisions block the
// frames behind them — the mirror must stay an ascending-LSN prefix — and are
// retried after the prepares land, which the outer loop converges on because
// a decision only ever waits on strictly earlier prepares. Each successful
// sync advances the replication hub, releasing semi-sync commit
// acknowledgments.
func (r *Replica) mirrorPass() {
	if r.degraded {
		return
	}
	for {
		progressed := false
		for _, s := range r.shards {
			n := 0
			for n < len(s.staged) {
				sf := &s.staged[n]
				if sf.Kind == wal.KindDecision && !r.decisionMirrorSafe(s, sf) {
					break
				}
				n++
			}
			if n == 0 {
				continue
			}
			var err error
			for i := 0; i < n; i++ {
				if err = s.mirror.AppendShipped(s.staged[i].LSN, s.staged[i].Frame); err != nil {
					break
				}
			}
			if err == nil {
				err = s.mirror.Sync()
			}
			if err != nil {
				// The mirror is broken: stop promising durability. Seal what is
				// already durable, keeping the close error too — Stats().Err is
				// how an operator learns *why* the replica degraded. Detaching
				// releases semi-sync waiters (degrade to async, MySQL-style)
				// and unfreezes primary truncation; the replica keeps applying
				// for read availability and re-ships after a restart.
				err = fmt.Errorf("engine: replica: mirror container %d failed, degraded to async: %w", s.id, err)
				if cerr := s.mirror.Close(); cerr != nil {
					err = errors.Join(err, fmt.Errorf("engine: replica: seal degraded mirror container %d: %w", s.id, cerr))
				}
				r.degraded = true
				r.lastErr = err
				r.primary.repl.detach(r)
				return
			}
			for i := 0; i < n; i++ {
				sf := &s.staged[i]
				switch sf.Kind {
				case wal.KindPrepare:
					s.preparedMirrored[sf.GlobalID] = true
				case wal.KindDecision:
					if d, ok := r.decisions[sf.GlobalID]; ok {
						d.mirrored = true
						r.maybeReleaseGroup(sf.GlobalID, d)
					}
				}
			}
			s.staged = slices.Delete(s.staged, 0, n) // zeroes the vacated tail
			r.primary.repl.advance(r, s.id, s.mirror.DurableLSN())
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// decisionMirrorSafe reports whether a staged decision frame may be made
// durable in the mirror: every write participant's prepare must be durably
// mirrored on its shard first. A same-shard prepare precedes the decision in
// this shard's own staged prefix, so segment write order (prefix durability)
// covers it. A participant with no prepare anywhere is read-only or
// checkpoint-covered — provable once that shard's shipped prefix passes the
// group's fence.
func (r *Replica) decisionMirrorSafe(s *replicaShard, sf *wal.ShippedRecord) bool {
	d := r.decisions[sf.GlobalID]
	for _, p := range sf.Participants {
		pi := int(p)
		if pi < 0 || pi >= len(r.shards) || pi == s.id {
			continue
		}
		ps := r.shards[pi]
		if ps.preparedMirrored[sf.GlobalID] {
			continue
		}
		if stagedHasPrepare(ps, sf.GlobalID) {
			return false // its prepare mirrors this pass; retry next iteration
		}
		if d == nil || d.fence == nil || ps.polledDurable >= d.fence[pi] {
			continue // proven read-only or covered by the bootstrap checkpoint
		}
		return false // not yet shipped far enough to prove anything
	}
	return true
}

func stagedHasPrepare(s *replicaShard, gid uint64) bool {
	for i := range s.staged {
		if s.staged[i].Kind == wal.KindPrepare && s.staged[i].GlobalID == gid {
			return true
		}
	}
	return false
}

// applyRound applies everything applicable to a fixpoint under the replica
// database's commit gate, then advances each shard's watermark. Holding the
// gate exclusively for the whole round is what makes round boundaries the
// only states a committed read can observe (rule four).
func (r *Replica) applyRound() {
	r.db.commitGate.Lock()
	for {
		progress := false
		for _, s := range r.shards {
			if r.drainHead(s) {
				progress = true
			}
		}
		for gid, d := range r.decisions {
			if !d.applied && r.tryApplyGroup(gid, d) {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for _, s := range r.shards {
		if len(s.queue) > 0 {
			s.appliedTo = s.queue[0].LSN - 1
		} else {
			s.appliedTo = s.lastShipped
		}
		if s.appliedTo < s.floor {
			s.appliedTo = s.floor
		}
	}
	r.rounds++
	r.db.commitGate.Unlock()
}

// drainHead applies the shard's queue strictly in order until it empties or
// hits a prepare still waiting for its decision. Commits never jump; records
// covered by the floor or voided by a retraction pop without applying.
func (r *Replica) drainHead(s *replicaShard) bool {
	progress := false
	for len(s.queue) > 0 {
		rec := &s.queue[0]
		if rec.LSN <= s.floor || s.retracted[rec.TID] > rec.LSN {
			s.removeAt(0)
			progress = true
			continue
		}
		if rec.Kind == wal.KindPrepare {
			d := r.decisions[rec.GlobalID]
			if d == nil || !d.applied {
				return progress // blocked: decision not shipped or group not ready
			}
			// The group resolved without consuming this prepare (aborted
			// resolution); drop it.
			s.removeAt(0)
			progress = true
			continue
		}
		r.applyWrites(s, rec)
		s.removeAt(0)
		progress = true
	}
	return progress
}

// tryApplyGroup applies one decided 2PC group atomically across its
// participant shards, once its fence has passed and every located prepare has
// no pending commit ahead of it (commits never jump). Participants whose
// prepare is absent are read-only, checkpoint-covered, or retracted — the
// fence proves the prepare cannot still be in flight.
func (r *Replica) tryApplyGroup(gid uint64, d *groupDecision) bool {
	if d.fence != nil {
		for i, f := range d.fence {
			if r.shards[i].polledDurable < f {
				return false
			}
		}
	}
	coord := r.shards[d.shard]
	// A retracted decision (the failed-force salvage path made it void)
	// resolves the group as aborted: exactly what the primary's own recovery
	// would do, since replay skips LSN-retracted records.
	aborted := coord.retracted[d.tid] > d.lsn

	type located struct {
		s   *replicaShard
		idx int
	}
	var locs []located
	for _, p := range d.participants {
		pi := int(p)
		if pi < 0 || pi >= len(r.shards) {
			continue
		}
		s := r.shards[pi]
		idx, commitAhead := -1, false
		for i := range s.queue {
			q := &s.queue[i]
			if q.Kind == wal.KindPrepare && q.GlobalID == gid {
				idx = i
				break
			}
			if q.Kind == wal.KindCommit && q.LSN > s.floor && s.retracted[q.TID] <= q.LSN {
				commitAhead = true
			}
		}
		if idx < 0 {
			continue
		}
		if commitAhead {
			return false // preserve per-shard commit order; drain first
		}
		locs = append(locs, located{s, idx})
	}
	for _, l := range locs {
		q := &l.s.queue[l.idx]
		if !aborted && q.LSN > l.s.floor && l.s.retracted[q.TID] <= q.LSN {
			r.applyWrites(l.s, q)
		}
		l.s.removeAt(l.idx)
	}
	d.applied = true
	d.aborted = aborted
	r.maybeReleaseGroup(gid, d)
	return true
}

// maybeReleaseGroup frees a group's bookkeeping once it is both applied and
// its decision durably mirrored — before that, the mirror pass still needs
// the prepared-mirrored index to hold the decision frame back safely.
func (r *Replica) maybeReleaseGroup(gid uint64, d *groupDecision) {
	if !d.applied || !d.mirrored {
		return
	}
	delete(r.decisions, gid)
	for _, s := range r.shards {
		delete(s.preparedMirrored, gid)
	}
}

// applyWrites installs one shipped record the way recovery installs a
// replayed one. A write that does not resolve (a placement or schema mismatch
// with the primary) is recorded for Stats and skipped; the replica keeps
// serving what it can.
func (r *Replica) applyWrites(s *replicaShard, rec *wal.Record) {
	if err := s.local.installRecord(rec); err != nil {
		r.lastErr = fmt.Errorf("engine: replica: %w", err)
	}
	s.appliedRecs++
	r.applied++
}

// removeAt splices one record out of the shard's queue.
func (s *replicaShard) removeAt(i int) {
	copy(s.queue[i:], s.queue[i+1:])
	s.queue[len(s.queue)-1] = wal.Record{}
	s.queue = s.queue[:len(s.queue)-1]
	if len(s.queue) == 0 {
		s.queue = nil
	}
}

// pendingWork reports whether an apply round could make progress.
func (r *Replica) pendingWork() bool {
	for _, s := range r.shards {
		if len(s.queue) > 0 {
			return true
		}
	}
	for _, d := range r.decisions {
		if !d.applied {
			return true
		}
	}
	return false
}

// Close detaches the replica from the primary (releasing any semi-sync
// waiter), stops the tailing loop, seals the mirror and closes the inner
// database. Staged-but-unmirrored frames are simply re-shipped by the next
// incarnation.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.primary.repl.detach(r)
	close(r.stopCh)
	<-r.doneCh
	for _, s := range r.shards {
		if err := s.mirror.Close(); err != nil {
			r.mu.Lock()
			r.lastErr = fmt.Errorf("engine: replica: close mirror container %d: %w", s.id, err)
			r.mu.Unlock()
		}
	}
	r.db.Close()
}

// Query runs a declarative read-only query against the replica's applied
// watermark: the same serializable machinery as on a primary, validated
// against the apply rounds, so the result is a consistent committed prefix of
// the primary's history.
func (r *Replica) Query(q *rel.Query) (*rel.Result, error) {
	return r.db.Query(q)
}

// Execute runs a read-only procedure on the replica. Any write the procedure
// attempts fails with ErrReplicaRead and aborts the transaction.
func (r *Replica) Execute(reactor, procedure string, args ...any) (any, error) {
	return r.db.Execute(reactor, procedure, args...)
}

// ReadRow reads one row non-transactionally at a round boundary.
func (r *Replica) ReadRow(reactor, relation string, keyVals ...any) (rel.Row, error) {
	r.db.commitGate.RLock()
	defer r.db.commitGate.RUnlock()
	return r.db.ReadRow(reactor, relation, keyVals...)
}

// Database returns the replica's inner read-serving database, for inspection
// (TableLen, Stats) — never for writes, which it rejects.
func (r *Replica) Database() *Database { return r.db }

// Storage returns the replica's mirror store. Opening it under DurabilityWAL
// and running Recover promotes the replica's durable state to a primary.
func (r *Replica) Storage() wal.Storage { return r.storage }

// Mode returns the replica's acknowledgment mode.
func (r *Replica) Mode() AckMode { return r.mode }

// WaitCaughtUp blocks until every shard has shipped, mirrored and applied the
// primary's full durable prefix, or the timeout elapses. It is primarily a
// test and benchmark synchronization point; the primary should be quiescent,
// otherwise the target moves.
func (r *Replica) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// Re-check faster than the shipping poll when that poll is slow: the
	// sleep bounds how far past the deadline this can run, and a long
	// PollInterval must not turn a short timeout into an hour-long wait.
	step := r.poll
	if max := 5 * time.Millisecond; step > max {
		step = max
	}
	for {
		if r.caughtUp() {
			return nil
		}
		if time.Now().After(deadline) {
			st := r.Stats()
			return fmt.Errorf("engine: replica not caught up after %v: %+v", timeout, st.Shards)
		}
		time.Sleep(step)
	}
}

func (r *Replica) caughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastErr != nil && r.degraded {
		return false
	}
	for _, s := range r.shards {
		durable := s.primary.wal.DurableLSN()
		if s.polledDurable < durable || len(s.queue) > 0 || len(s.staged) > 0 {
			return false
		}
	}
	for _, d := range r.decisions {
		if !d.applied {
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
	// Rounds counts apply rounds; Applied counts records installed.
	Rounds  uint64
	Applied uint64
	// Rebootstraps counts checkpoint fast-forwards after shipping gaps.
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
	// Pending is the number of queued records that can still apply (entries
	// at or below the floor or voided by a retraction are excluded — they pop
	// without applying); Floor is the checkpoint low-water mark.
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

// pendingCount is the number of queued records that will actually install:
// sub-floor and retracted entries drain without applying, so counting them
// would overstate the backlog after a fast-forward.
func (s *replicaShard) pendingCount() int {
	n := 0
	for i := range s.queue {
		rec := &s.queue[i]
		if rec.LSN > s.floor && s.retracted[rec.TID] <= rec.LSN {
			n++
		}
	}
	return n
}

// Stats returns a consistent snapshot of the replica's progress.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplicaStats{
		Mode:         r.mode,
		Degraded:     r.degraded,
		Rounds:       r.rounds,
		Applied:      r.applied,
		Rebootstraps: r.rebootstraps,
	}
	if r.lastErr != nil {
		st.Err = r.lastErr.Error()
	}
	for _, s := range r.shards {
		durable := s.primary.wal.DurableLSN()
		sh := ReplicaShardStats{
			Container:      s.id,
			PrimaryDurable: durable,
			Shipped:        max(s.lastShipped, s.floor),
			Mirrored:       max(s.mirror.DurableLSN(), s.floor),
			Applied:        s.appliedTo,
			Lag:            lagRecords(durable, s.appliedTo),
			Pending:        s.pendingCount(),
			Floor:          s.floor,
		}
		st.Shards = append(st.Shards, sh)
	}
	return st
}
