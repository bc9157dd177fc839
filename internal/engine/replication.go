package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the primary's side of replication: the acknowledgment modes
// and the hub tracking every attached replica's shipping progress. The
// replica side — bootstrap, segment tailing, mirroring and apply — lives in
// replica.go; the raw log plumbing in internal/wal/ship.go.

// AckMode selects when a primary acknowledges a commit relative to
// replication progress.
type AckMode string

// Acknowledgment modes.
const (
	// AckAsync (the default) acknowledges a commit as soon as it is durable
	// on the primary's own log. Replicas tail the log at their own pace; a
	// primary failure can lose commits the replica had not yet received.
	AckAsync AckMode = "async"
	// AckSemiSync withholds the commit acknowledgment until every attached
	// semi-sync replica has durably received (mirrored and fsynced) the
	// commit's log records. An acknowledged commit then survives the loss of
	// either the primary or the replica — the replica can be promoted and
	// recovery will find the records in its mirror. Like MySQL's semi-sync,
	// the mode degrades to async when no semi-sync replica is attached (a
	// failed replica detaches itself), so a dead replica cannot wedge the
	// primary forever. That holds only while the primary is healthy: once the
	// primary is fenced (a failover is promoting one of its replicas), a
	// commit whose ship-wait is released — by the promoted replica detaching,
	// or by a survivor confirming a record the promoted one never received —
	// fails with ErrFenced, outcome unknown, instead of being acknowledged.
	AckSemiSync AckMode = "semi-sync"
)

// replicationHub lives on a primary Database and tracks the durably-mirrored
// LSN of every attached replica, per container. It is consulted in two ways:
// waitShipped is the commit pipeline's ship-wait stage, and floor clamps
// checkpoint truncation so the primary never deletes segments an attached
// replica still has to ship.
type replicationHub struct {
	// fenced reports whether the owning database has been fenced behind a
	// newer primary epoch (Database.Fenced).
	fenced func() bool

	mu   sync.Mutex
	cond *sync.Cond
	// replicas maps each attached replica to its per-container mirrored-LSN
	// vector. The map is keyed by identity; the Replica's internals are never
	// touched from here.
	replicas map[*Replica]*replAttachment
	// semiSync counts attached semi-sync replicas, read without the lock on
	// the commit fast path: with zero attached, waitShipped takes no lock.
	semiSync atomic.Int32
}

type replAttachment struct {
	mode    AckMode
	shipped []uint64 // per-container durably mirrored LSN
}

func newReplicationHub(fenced func() bool) *replicationHub {
	h := &replicationHub{fenced: fenced, replicas: make(map[*Replica]*replAttachment)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// attach registers a replica. Its mirrored vector starts at zero, which
// freezes checkpoint truncation (floor) until the replica has shipped the
// existing log — exactly what a bootstrapping replica needs.
func (h *replicationHub) attach(r *Replica, mode AckMode, containers int) {
	h.mu.Lock()
	if _, dup := h.replicas[r]; !dup && mode == AckSemiSync {
		h.semiSync.Add(1)
	}
	h.replicas[r] = &replAttachment{mode: mode, shipped: make([]uint64, containers)}
	h.mu.Unlock()
}

// detach removes a replica and wakes every semi-sync waiter so commits
// blocked on the departed replica re-evaluate against the survivors (or
// against nobody: semi-sync degrades to async, never to a wedged primary).
func (h *replicationHub) detach(r *Replica) {
	h.mu.Lock()
	if a, ok := h.replicas[r]; ok {
		delete(h.replicas, r)
		if a.mode == AckSemiSync {
			h.semiSync.Add(-1)
		}
		h.cond.Broadcast()
	}
	h.mu.Unlock()
}

// advance records that a replica has durably mirrored container's log through
// lsn and wakes commit acknowledgments waiting on it.
func (h *replicationHub) advance(r *Replica, container int, lsn uint64) {
	h.mu.Lock()
	if a, ok := h.replicas[r]; ok && container < len(a.shipped) && lsn > a.shipped[container] {
		a.shipped[container] = lsn
		h.cond.Broadcast()
	}
	h.mu.Unlock()
}

// waitShipped is the commit pipeline's ship-wait stage: it blocks until every
// attached semi-sync replica has durably mirrored container's log through
// lsn, and reports whether the records may then be acknowledged. With no
// semi-sync replica attached it does not block (one atomic load — async
// deployments and replica-free primaries pay nothing). A replica that
// detaches mid-wait stops being waited for: its durability promise is
// withdrawn along with it.
//
// That release is a success only on a healthy primary. Supervisor.Failover
// fences the old primary before PromoteReplica closes the candidate, and
// detach publishes under mu, so a waiter released by a promotion-driven
// detach — or by a survivor mirroring a record the promoted candidate never
// received — observes the fence here and must not acknowledge: the new
// primary may not hold the record.
func (h *replicationHub) waitShipped(container int, lsn uint64) error {
	if h.semiSync.Load() > 0 {
		h.mu.Lock()
		for h.behind(container, lsn) {
			h.cond.Wait()
		}
		h.mu.Unlock()
	}
	if h.fenced() {
		return fmt.Errorf("engine: commit outcome unknown: %w before replicas confirmed LSN %d of container %d", ErrFenced, lsn, container)
	}
	return nil
}

// behind reports whether some attached semi-sync replica has not yet durably
// mirrored container's log through lsn. The caller holds mu.
func (h *replicationHub) behind(container int, lsn uint64) bool {
	for _, a := range h.replicas {
		if a.mode == AckSemiSync && container < len(a.shipped) && a.shipped[container] < lsn {
			return true
		}
	}
	return false
}

// floor returns the minimum durably-mirrored LSN across every attached
// replica for the container, and whether any replica is attached. Checkpoint
// truncation clamps its low-water mark to this floor so the log a replica is
// still shipping stays available; without attached replicas truncation is
// unconstrained.
func (h *replicationHub) floor(container int) (uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	min, any := uint64(0), false
	for _, a := range h.replicas {
		if container >= len(a.shipped) {
			continue
		}
		if !any || a.shipped[container] < min {
			min, any = a.shipped[container], true
		}
	}
	return min, any
}
