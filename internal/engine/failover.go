package engine

import (
	"fmt"
	"sync"
	"time"

	"reactdb/internal/wal"
)

// This file is supervised failover over the promotion substrate of
// replica.go: detect a dead primary (missed heartbeats), fence it behind a
// new epoch (durably, so even a restarted zombie refuses writes), promote the
// freshest semi-sync replica by opening its mirror under DurabilityWAL and
// recovering, re-point surviving replicas at the promoted log after a
// divergence repair, and optionally re-attach the deposed primary's storage
// as a fresh replica the same way.
//
// The fencing order is the load-bearing part. Before anything is promoted the
// supervisor (1) fences the old primary in memory — every container log
// rejects Append AND Sync with wal.ErrFenced from that instant, so no commit
// can be acknowledged after the decision to fail over — and (2) best-effort
// writes the fence into the old primary's storage, the shared-storage analog
// of STONITH: a zombie that restarts over that storage loads the fence at
// Open and comes up read-only. Only then is the new epoch stamped into the
// chosen replica's mirror and the mirror opened as the new primary. An
// in-memory fence on a live handle cannot fail; the durable write can (the
// storage may be the very thing that died), which is safe: that storage is
// equally unreadable to a restarting zombie.
//
// Divergence repair (re-point / re-attach): the new primary's durable LSN T
// per shard bounds what was acknowledged anywhere. A surviving log's suffix
// above T was never acked and is unwound with wal.TruncateAbove — unless the
// node's newest checkpoint may have fuzzily absorbed effects above T
// (Checkpoint.HighLSN > T, or unknown), in which case the blob itself is
// tainted and the log is wiped for a fresh bootstrap from the new primary.

// ErrFenced reports a write on a fenced (deposed) primary: a newer primary
// epoch exists and this node must not make anything durable. It aliases
// wal.ErrFenced so errors.Is works on either.
var ErrFenced = wal.ErrFenced

// errNoPromotable is returned by a failover with no live replica to promote.
var errNoPromotable = fmt.Errorf("engine: failover: no promotable replica (none attached, or all degraded)")

// Epoch returns the primary term this node's logs append under (0 until a
// first failover stamps one).
func (db *Database) Epoch() uint64 { return db.walEpoch.Load() }

// Fenced reports whether this node is fenced behind a newer primary epoch:
// its WALs reject appends and syncs with ErrFenced.
func (db *Database) Fenced() bool { return db.walFence.Load() > db.walEpoch.Load() }

// Fence fences every epoch below belowEpoch on this node, in memory first —
// from the moment Fence returns no commit can become durable or be
// acknowledged — and then durably in the node's storage so a restart over the
// same storage stays fenced. The durable write's error is returned; the
// in-memory fence holds regardless. Fencing is monotonic and idempotent; a
// node whose own epoch is at or above belowEpoch is unaffected.
func (db *Database) Fence(belowEpoch uint64) error {
	for {
		cur := db.walFence.Load()
		if cur >= belowEpoch {
			break
		}
		if db.walFence.CompareAndSwap(cur, belowEpoch) {
			break
		}
	}
	for _, c := range db.containers {
		if c.wal != nil {
			c.wal.Fence(belowEpoch)
		}
	}
	if db.cfg.Durability.Mode != DurabilityWAL {
		return nil
	}
	return FenceStorage(db.cfg.Durability.Storage, belowEpoch)
}

// FenceStorage durably fences a node's storage without a live handle to the
// node — the deposed primary's process is typically dead. The existing epoch
// state is preserved; only the fence is raised (monotonically).
func FenceStorage(s wal.Storage, belowEpoch uint64) error {
	st, err := wal.ReadEpochState(s)
	if err != nil {
		return err
	}
	if st.FenceBelow >= belowEpoch {
		return nil
	}
	st.FenceBelow = belowEpoch
	return wal.WriteEpochState(s, st)
}

// Heartbeat probes the primary's durability path end to end: it appends an
// empty commit record to every container's WAL and forces it durable,
// bypassing group commit. An error — storage failure, a fenced log — is
// exactly the signal that this node can no longer acknowledge commits, which
// is what a failover supervisor needs to know; in-memory execution health is
// irrelevant if nothing can be made durable. Under durability modes without a
// WAL it degrades to a liveness check.
func (db *Database) Heartbeat() error {
	if db.closed.Load() {
		return errDatabaseClosed
	}
	if db.cfg.Durability.Mode != DurabilityWAL {
		return nil
	}
	// The commit gate (shared) keeps the probe inside the same quiesce
	// discipline as real commits, so a concurrent checkpoint never observes a
	// heartbeat between append and durability.
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	for _, c := range db.containers {
		if c.wal == nil {
			continue
		}
		// An empty commit at TID 0: no writes to install, invisible to
		// recovery and replicas beyond advancing their shipped watermark.
		if err := c.appendSync(wal.Record{Kind: wal.KindCommit}); err != nil {
			return fmt.Errorf("engine: heartbeat container %d: %w", c.id, err)
		}
	}
	return nil
}

// FreshestReplica picks the failover candidate from a set of replicas:
// non-degraded semi-sync replicas are preferred (their mirrors durably hold
// every acknowledged commit — the semi-sync contract), ranked by total
// durably mirrored LSN across shards; non-degraded async replicas are a last
// resort. Returns nil if nothing is promotable.
func FreshestReplica(replicas []*Replica) *Replica {
	var best *Replica
	var bestSum uint64
	bestSemi := false
	for _, r := range replicas {
		if r == nil {
			continue
		}
		st := r.Stats()
		if st.Degraded {
			continue
		}
		semi := st.Mode == AckSemiSync
		var sum uint64
		for _, sh := range st.Shards {
			sum += sh.Mirrored
		}
		better := best == nil ||
			(semi && !bestSemi) ||
			(semi == bestSemi && sum > bestSum)
		if better {
			best, bestSum, bestSemi = r, sum, semi
		}
	}
	return best
}

// PromoteReplica turns a replica into a primary: the replica is closed, its
// mirror storage is stamped with the new epoch (durably, before the first
// record can append under it), and the storage is opened as a normal
// DurabilityWAL database — same definition and deployment shape as the old
// primary — with Recover replaying mirror + checkpoint into a serving state.
// The semi-sync contract makes this lossless for acknowledged commits: every
// acked commit is durably in this mirror.
func PromoteReplica(rep *Replica, newEpoch uint64) (*Database, error) {
	def := rep.primary.def
	cfg := rep.primary.cfg
	cfg.Durability.Storage = rep.storage
	cfg.Durability.SegmentSize = rep.segSize
	rep.Close()

	st, err := wal.ReadEpochState(rep.storage)
	if err != nil {
		return nil, fmt.Errorf("engine: promote: read epoch state: %w", err)
	}
	if newEpoch < st.FenceBelow {
		return nil, fmt.Errorf("engine: promote: epoch %d is below this node's fence %d", newEpoch, st.FenceBelow)
	}
	st.Epoch = newEpoch
	if err := wal.WriteEpochState(rep.storage, st); err != nil {
		return nil, fmt.Errorf("engine: promote: stamp epoch %d: %w", newEpoch, err)
	}

	db, err := Open(def, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: promote: open mirror as primary: %w", err)
	}
	// Record the promotion cut — the physical tail of each shard's mirror,
	// captured before Recover appends presume-abort tombstones and before any
	// new-epoch commit. Everything at or below the cut is a byte-identical
	// prefix of the old primary's log, shared with every other mirror of it;
	// everything this node appends above the cut is a new timeline. If the
	// log's notion of its last LSN runs ahead of the physical tail (a copied
	// checkpoint blob can cover records the mirror never shipped), there is no
	// LSN below which other nodes' records are provably identical — record a
	// zero cut so repairStorage wipes them into a fresh bootstrap.
	for i, c := range db.containers {
		cut := uint64(0)
		if c.wal != nil {
			phys, terr := wal.TailLSN(rep.storage.Sub(fmt.Sprintf("container-%d", i)))
			if terr != nil {
				db.Close()
				return nil, fmt.Errorf("engine: promote: tail of container %d: %w", i, terr)
			}
			if phys == c.wal.LastLSN() {
				cut = phys
			}
		}
		db.promoCut = append(db.promoCut, cut)
	}
	if _, err := db.Recover(); err != nil {
		db.Close()
		return nil, fmt.Errorf("engine: promote: recover: %w", err)
	}
	return db, nil
}

// repairDivergence reconciles one shard's log storage with the new primary's
// durable LSN T for that shard. Three outcomes:
//
//   - tail <= T: the log is a prefix of the new primary's history — clean.
//   - diverged, and the newest local checkpoint's capture horizon is known
//     and at or below T (or there is no checkpoint): the suffix above T was
//     never acknowledged anywhere; truncate it.
//   - diverged with a checkpoint whose horizon is above T or unknown: the
//     blob may carry an effect of a record being cut; wipe the shard for a
//     fresh bootstrap from the new primary's checkpoint.
func repairDivergence(sub wal.Storage, durable uint64) error {
	tail, err := wal.TailLSN(sub)
	if err != nil {
		return err
	}
	if tail <= durable {
		return nil
	}
	cp, _, err := wal.LatestCheckpoint(sub)
	if err != nil {
		return err
	}
	if cp == nil || (cp.HighLSN > 0 && cp.HighLSN <= durable) {
		_, err := wal.TruncateAbove(sub, durable)
		return err
	}
	return wal.WipeLog(sub)
}

// repairStorage runs repairDivergence for every shard of a node's storage.
// The reconciliation horizon is the new primary's promotion cut when it has
// one: LSNs at or below the cut are a shared byte-identical prefix of the old
// timeline, while above it the new primary's records (recovery tombstones,
// new-epoch commits) can differ in content from what this node holds at the
// same LSNs — an LSN-only comparison against the current durable watermark
// would wrongly call such a suffix "clean" and the differing records would
// never re-ship. A primary that was never promoted wrote its whole log
// itself, so its durable LSN is the horizon.
func repairStorage(s wal.Storage, newPrimary *Database) error {
	for i, c := range newPrimary.containers {
		if c.wal == nil {
			continue
		}
		horizon := c.wal.DurableLSN()
		if i < len(newPrimary.promoCut) {
			horizon = newPrimary.promoCut[i]
		}
		sub := s.Sub(fmt.Sprintf("container-%d", i))
		if err := repairDivergence(sub, horizon); err != nil {
			return fmt.Errorf("engine: repoint container %d: %w", i, err)
		}
	}
	return nil
}

// Repoint switches a surviving replica to a new primary: the replica is
// closed, each shard's mirror is divergence-repaired against the new
// primary's durable LSNs, and a fresh replica is opened over the same storage
// — resuming from the repaired mirror where possible, re-bootstrapping from
// the new primary's checkpoint where not. Ack mode, poll interval and segment
// size carry over unless overridden in opts.
func Repoint(rep *Replica, newPrimary *Database, opts ReplicaOptions) (*Replica, error) {
	if opts.Ack == "" {
		opts.Ack = rep.mode
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = rep.poll
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = rep.segSize
	}
	rep.Close()
	return ReattachStorage(rep.storage, newPrimary, opts)
}

// ReattachStorage attaches a node's log storage — typically the deposed
// primary's, after its process died — to a new primary as a replica. The
// storage is divergence-repaired first: the unacknowledged suffix beyond the
// new primary's durable history is truncated (or the shard wiped when its
// checkpoint is tainted, see repairDivergence), then a replica opens over it
// and tails the new primary. The old node's fence state is untouched — if
// its storage is ever promoted again it must be with an epoch at or above
// the fence.
func ReattachStorage(s wal.Storage, newPrimary *Database, opts ReplicaOptions) (*Replica, error) {
	if err := repairStorage(s, newPrimary); err != nil {
		return nil, err
	}
	opts.Storage = s
	return OpenReplica(newPrimary, opts)
}

// SupervisorOptions configures a failover Supervisor.
type SupervisorOptions struct {
	// Interval is the heartbeat probe cadence (default 10ms).
	Interval time.Duration
	// Misses is how many consecutive probe failures depose the primary
	// (default 3). One flaky fsync should not trigger a cluster-wide
	// reconfiguration.
	Misses int
	// OnPromote, if set, is called after every failover with the newly
	// promoted primary and the replica that was consumed to create it — the
	// hook a wire front-end uses to swap its backends: the listener fronting
	// the old primary and the one fronting the promoted replica both now
	// speak for from's successor.
	OnPromote func(promoted *Database, from *Replica)
	// OnRepoint, if set, is called for every surviving replica re-pointed at
	// the new primary during a failover: old has been closed, next tails the
	// promoted node over the same storage. A wire front-end swaps the
	// listener that fronted old over to next.
	OnRepoint func(old, next *Replica)
}

// Supervisor watches a primary and its replicas and drives failover: probe
// via Database.Heartbeat, and on persistent failure fence → promote →
// re-point, in that order. It is deliberately in-process and single-writer —
// one supervisor owns the cluster transition; the epoch machinery (not the
// supervisor) is what protects against a deposed primary racing it.
type Supervisor struct {
	opts SupervisorOptions

	mu       sync.Mutex
	primary  *Database
	replicas []*Replica
	misses   int
	// failovers counts completed failovers; lastErr records the most recent
	// failover or fencing problem for Stats.
	failovers uint64
	lastErr   error

	stopCh chan struct{}
	doneCh chan struct{}
	stopMu sync.Mutex // guards Start/Stop transitions
	active bool
}

// NewSupervisor builds a supervisor over a primary and its attached replicas.
// Call Start to begin probing, or drive Failover manually (e.g. from an
// operator command or a test).
func NewSupervisor(primary *Database, replicas []*Replica, opts SupervisorOptions) *Supervisor {
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Millisecond
	}
	if opts.Misses <= 0 {
		opts.Misses = 3
	}
	return &Supervisor{
		opts:     opts,
		primary:  primary,
		replicas: append([]*Replica(nil), replicas...),
	}
}

// Primary returns the current primary (it changes after a failover).
func (s *Supervisor) Primary() *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Replicas returns the current replica set (it changes after a failover: the
// promoted replica leaves it, survivors are re-pointed in place).
func (s *Supervisor) Replicas() []*Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Replica(nil), s.replicas...)
}

// SupervisorStats is a snapshot of the supervisor's view of the cluster.
type SupervisorStats struct {
	Epoch     uint64 // current primary's epoch
	Failovers uint64
	Misses    int // consecutive heartbeat misses so far
	Replicas  int
	Err       string // most recent failover/fencing problem, if any
}

// Stats returns a snapshot of supervisor state.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SupervisorStats{
		Epoch:     s.primary.Epoch(),
		Failovers: s.failovers,
		Misses:    s.misses,
		Replicas:  len(s.replicas),
	}
	if s.lastErr != nil {
		st.Err = s.lastErr.Error()
	}
	return st
}

// Start launches the background probe loop. Stop it with Stop; Start after
// Stop resumes probing.
func (s *Supervisor) Start() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.active {
		return
	}
	s.active = true
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	go s.watch(s.stopCh, s.doneCh)
}

// Stop halts the probe loop (a failover already in flight completes first).
func (s *Supervisor) Stop() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if !s.active {
		return
	}
	s.active = false
	close(s.stopCh)
	<-s.doneCh
}

func (s *Supervisor) watch(stopCh chan struct{}, doneCh chan struct{}) {
	defer close(doneCh)
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-ticker.C:
			s.probe()
		}
	}
}

// probe runs one heartbeat and, past the miss budget, a failover. Failover
// errors (e.g. no promotable replica yet) are kept in Stats and retried on
// the next tick rather than crashing the loop: a replica may still be
// attaching.
func (s *Supervisor) probe() {
	s.mu.Lock()
	p := s.primary
	s.mu.Unlock()
	if p.Heartbeat() == nil {
		s.mu.Lock()
		s.misses = 0
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.misses++
	trigger := s.misses >= s.opts.Misses
	s.mu.Unlock()
	if trigger {
		if _, err := s.Failover(); err != nil {
			s.mu.Lock()
			s.lastErr = err
			s.mu.Unlock()
		}
	}
}

// Failover deposes the current primary and promotes the freshest replica:
//
//  1. fence the old primary below epoch+1 (in memory immediately — no
//     further commit can be acknowledged — and best-effort durably in its
//     storage, so a restarted zombie stays read-only);
//  2. pick the freshest non-degraded semi-sync replica by durable mirror LSN;
//  3. stamp its mirror with the new epoch and open it as the new primary
//     (Recover over the mirror);
//  4. divergence-repair and re-point every surviving replica at the new
//     primary, preserving its ack mode.
//
// The old primary is NOT closed or re-attached here — its process is
// presumed dead; ReattachStorage re-joins its storage later if it comes
// back. Failover is also safe to call manually on a live primary (planned
// switchover): the fence stops its commits first.
func (s *Supervisor) Failover() (*Database, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	old := s.primary
	newEpoch := old.Epoch() + 1
	if f := old.walFence.Load(); f > newEpoch {
		newEpoch = f
	}
	if err := old.Fence(newEpoch); err != nil {
		// The storage that just failed heartbeats is expected to fail the
		// durable fence write too; the in-memory fence already holds, and a
		// zombie restarting over dead storage cannot serve writes either.
		s.lastErr = fmt.Errorf("engine: failover: durable fence on old primary: %w", err)
	}

	candidate := FreshestReplica(s.replicas)
	if candidate == nil {
		return nil, errNoPromotable
	}
	survivors := make([]*Replica, 0, len(s.replicas)-1)
	for _, r := range s.replicas {
		if r != candidate {
			survivors = append(survivors, r)
		}
	}

	promoted, err := PromoteReplica(candidate, newEpoch)
	if err != nil {
		return nil, fmt.Errorf("engine: failover: %w", err)
	}

	repointed := make([]*Replica, 0, len(survivors))
	for _, r := range survivors {
		nr, err := Repoint(r, promoted, ReplicaOptions{})
		if err != nil {
			// A replica that cannot re-point is dropped from the set (its
			// storage can be re-attached later); losing a replica must not
			// fail the failover that restores write availability.
			s.lastErr = fmt.Errorf("engine: failover: repoint replica: %w", err)
			continue
		}
		repointed = append(repointed, nr)
		if s.opts.OnRepoint != nil {
			s.opts.OnRepoint(r, nr)
		}
	}

	s.primary = promoted
	s.replicas = repointed
	s.misses = 0
	s.failovers++
	if s.opts.OnPromote != nil {
		s.opts.OnPromote(promoted, candidate)
	}
	return promoted, nil
}
