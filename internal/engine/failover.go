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
// freshest semi-sync replica by finishing its recovery in place, re-point
// surviving replicas at the promoted log — in place, or after a divergence
// repair and a reopen — and optionally re-attach the deposed primary's
// storage as a fresh replica the same way.
//
// The fencing order is the load-bearing part. Before anything is promoted the
// supervisor (1) fences the old primary's term (wal.Term.Fence) in memory —
// from then on no commit is acknowledged, and an fsync already in flight is
// not waited for — and (2) best-effort in its term record, the
// shared-storage analog of STONITH: a zombie that restarts over that storage
// loads the fence at Open and comes up read-only. Only then are the new epoch
// and the promotion cut written into the chosen replica's term record and
// its database made the new primary. The durable write can fail (the storage
// may be the very thing that died), which is safe: that storage is equally
// unreadable to a restarting zombie.
//
// Divergence repair (re-point / re-attach): per shard, the new primary's
// promotion cut — or, never promoted, its durable LSN — T bounds what other
// logs share with it. A surviving log's suffix above T was never acked and is
// unwound with wal.TruncateAbove — unless the node's newest checkpoint may
// have fuzzily absorbed effects above T (Checkpoint.HighLSN > T, or unknown),
// in which case the blob itself is tainted and the log is wiped for a fresh
// bootstrap from the new primary.

// ErrFenced reports a write on a fenced (deposed) primary: a newer primary
// epoch exists and this node must not make anything durable. It aliases
// wal.ErrFenced so errors.Is works on either.
var ErrFenced = wal.ErrFenced

// errNoPromotable is returned by a failover with no live replica to promote.
var errNoPromotable = fmt.Errorf("engine: failover: no promotable replica (none attached, or all degraded)")

// Epoch returns the primary term this node's logs append under (0 until a
// first failover stamps one).
func (db *Database) Epoch() uint64 { return db.term.Epoch() }

// Fenced reports whether this node is fenced behind a newer primary epoch:
// its WALs reject appends and syncs with ErrFenced.
func (db *Database) Fenced() bool { return db.term.Fenced() }

// Fence fences every epoch below belowEpoch on this node (wal.Term.Fence), in
// memory first and then durably. No commit is acknowledged after Fence
// returns — the commit pipeline's ship-wait re-checks the fence — but an
// fsync in flight is not waited for: the suffix it makes durable, never
// acknowledged, is what divergence repair truncates. The durable write's
// error is returned; the in-memory fence holds regardless. A node whose own
// epoch is at or above belowEpoch is unaffected.
func (db *Database) Fence(belowEpoch uint64) error { return db.term.Fence(belowEpoch) }

// Heartbeat probes the primary's durability path end to end: it appends an
// empty commit record to every container's WAL and forces it durable,
// bypassing group commit. An error — storage failure, a fenced log — is
// exactly the signal that this node can no longer acknowledge commits, which
// is what a failover supervisor needs to know; in-memory execution health is
// irrelevant if nothing can be made durable. Under durability modes without a
// WAL it degrades to a liveness check. A replica's database refuses with
// ErrReplicaRead: its logs are a mirror.
func (db *Database) Heartbeat() error {
	if db.closed.Load() {
		return errDatabaseClosed
	}
	if db.replica.Load() {
		return ErrReplicaRead
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
// semi-sync replicas are preferred (their mirrors durably hold every
// acknowledged commit — the semi-sync contract), ranked by total durably
// mirrored LSN across shards; async replicas are a last resort. A closed or
// degraded replica is never picked. Returns nil if nothing is promotable.
func FreshestReplica(replicas []*Replica) *Replica {
	var best *Replica
	var bestSum uint64
	bestSemi := false
	for _, r := range replicas {
		if r == nil || !r.promotable() {
			continue
		}
		st := r.Stats()
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

// PromoteReplica turns a replica into a primary in place, with no reopen and
// no replay: it stops tailing, drops the staged frames (never fed), stamps the
// new epoch and its cut durably into the replica's term record and finishes the recovery the
// replica began when it opened. The resolver holds exactly what the mirror
// durably holds, so this leaves the state a restart over the mirror would
// recover. It returns the replica's database, now a writable primary holding
// every commit a semi-sync replica acknowledged, and rep.Database() keeps
// returning it. A degraded or closed replica is refused; a failure after that
// closes the replica.
func PromoteReplica(rep *Replica, newEpoch uint64) (*Database, error) {
	rep.mu.Lock()
	if rep.closed || rep.degraded.Load() {
		rep.mu.Unlock()
		return nil, fmt.Errorf("engine: promote: replica is closed or degraded")
	}
	rep.closed = true
	rep.mu.Unlock()
	rep.unfollow()
	rep.mu.Lock()
	defer rep.mu.Unlock()
	db := rep.Database()
	if err := rep.promote(db, newEpoch); err != nil {
		db.Close()
		return nil, fmt.Errorf("engine: promote: %w", err)
	}
	return db, nil
}

// promotable reports whether the replica may still be promoted: neither
// closed (or already promoted) nor degraded.
func (rep *Replica) promotable() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return !rep.closed && !rep.degraded.Load()
}

// promote is PromoteReplica on rep's database db once tailing stopped; the
// caller holds rep.mu.
func (rep *Replica) promote(db *Database, newEpoch uint64) error {
	for _, s := range rep.shards {
		s.staged = nil
	}
	// Take the promotion cut (wal.EpochState.Cut): the physical tail of each
	// shard's mirror, before finish appends presume-abort tombstones. If the
	// log's last LSN runs ahead of it (a copied checkpoint blob can cover
	// records the mirror never shipped), no LSN is known below which other
	// nodes' records match — a zero cut makes repairStorage wipe them into a
	// fresh bootstrap — and the log continues above the blob, where a restart
	// would start it.
	cuts := make([]uint64, len(db.containers))
	for i, c := range db.containers {
		floor := rep.res.shards[i].floor
		phys, err := wal.TailLSN(c.walStorage)
		if err != nil {
			return fmt.Errorf("tail of container %d: %w", i, err)
		}
		if phys == max(c.wal.LastLSN(), floor) {
			cuts[i] = phys
		}
		if err := c.wal.Cover(floor); err != nil {
			return fmt.Errorf("container %d: %w", i, err)
		}
		// Blobs copied from the old primary carry its sequence numbers.
		if err := c.seedCheckpointSeq(); err != nil {
			return err
		}
	}
	if err := db.term.Promote(newEpoch, cuts); err != nil {
		return err
	}
	if _, err := db.finish(rep.res); err != nil {
		return err
	}
	db.replica.Store(false)
	return nil
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
	cp, err := wal.LatestCheckpointHeader(sub)
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
		sub := s.Sub(fmt.Sprintf("container-%d", i))
		if err := repairDivergence(sub, repairHorizon(newPrimary, i)); err != nil {
			return fmt.Errorf("engine: repoint container %d: %w", i, err)
		}
	}
	return nil
}

// repairHorizon is the LSN of container i's log up to which other nodes'
// logs are a prefix of newPrimary's: the promotion cut its term records
// (restarts included), or for a primary never promoted its durable LSN.
func repairHorizon(newPrimary *Database, i int) uint64 {
	if cut := newPrimary.term.Cut(); i < len(cut) {
		return cut[i]
	}
	return newPrimary.containers[i].wal.DurableLSN()
}

// Repoint makes the replica follow a new primary, with its ack mode. When
// repairStorage would leave its mirror untouched, it keeps its database and
// resolver, which hold exactly what the mirror durably holds, and follows
// from the end of its mirror, serving reads throughout: the state a reopen
// reaches. One that holds records the new timeline does not — above a
// promotion cut, or fed unmirrored while degraded — is reopened: its
// database closed, its mirror repaired and a new database loaded over it. A
// replica that fails to re-point is closed (ReattachStorage can re-join its
// storage). Repoint must not run concurrently with Close.
func Repoint(rep *Replica, newPrimary *Database) error {
	rep.mu.Lock()
	closed := rep.closed
	rep.mu.Unlock()
	if closed {
		return fmt.Errorf("engine: repoint: replica is closed")
	}
	rep.unfollow()
	clean, err := rep.clean(newPrimary)
	if err == nil && !clean {
		old := rep.Database()
		old.Close()
		if err = repairStorage(old.cfg.Durability.Storage, newPrimary); err == nil {
			err = rep.open(old.def, old.cfg)
		}
	}
	if err == nil {
		err = rep.follow(newPrimary)
	}
	if err != nil {
		rep.Close()
		return fmt.Errorf("engine: repoint: %w", err)
	}
	rep.start()
	return nil
}

// clean reports whether repairStorage would leave the mirror of every shard
// of a replica that is not degraded as it is against newPrimary.
func (rep *Replica) clean(newPrimary *Database) (bool, error) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.degraded.Load() {
		return false, nil
	}
	for _, s := range rep.shards {
		tail, err := wal.TailLSN(s.local.walStorage)
		if err != nil || tail > repairHorizon(newPrimary, s.id) {
			return false, err
		}
	}
	return true, nil
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
	// promoted primary. It only notifies: the promoted database is the
	// candidate replica's own, and every replica handle survives.
	OnPromote func(promoted *Database)
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
// promoted replica leaves it, survivors are re-pointed in place and stay, and
// a replica whose promotion or re-point failed is dropped).
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
//  1. fence the old primary below the next epoch (in memory immediately — no
//     commit is acknowledged after it, and it does not wait for an fsync in
//     flight — and best-effort durably in its storage, so a restarted zombie
//     stays read-only);
//  2. pick the freshest non-degraded semi-sync replica by durable mirror LSN;
//  3. stamp its term record with the new epoch and the promotion cut and
//     finish its recovery in place (PromoteReplica); a candidate that fails
//     is dropped from the set, so the next attempt picks another;
//  4. re-point every surviving replica handle at the new primary (Repoint),
//     preserving its ack mode.
//
// The old primary is NOT closed or re-attached here — its process is
// presumed dead; ReattachStorage re-joins its storage later if it comes
// back. Failover is also safe to call manually on a live primary (planned
// switchover): the fence stops its commits first.
func (s *Supervisor) Failover() (*Database, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	old := s.primary
	newEpoch := old.term.Next()
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
		// A failed promotion closed the candidate (or found it degraded):
		// picking it again would fail again.
		s.replicas = survivors
		return nil, fmt.Errorf("engine: failover: %w", err)
	}

	repointed := survivors[:0]
	for _, r := range survivors {
		if err := Repoint(r, promoted); err != nil {
			// A replica that cannot re-point is dropped from the set (its
			// storage can be re-attached later); losing a replica must not
			// fail the failover that restores write availability.
			s.lastErr = fmt.Errorf("engine: failover: %w", err)
			continue
		}
		repointed = append(repointed, r)
	}

	s.primary = promoted
	s.replicas = repointed
	s.misses = 0
	s.failovers++
	if s.opts.OnPromote != nil {
		s.opts.OnPromote(promoted)
	}
	return promoted, nil
}
