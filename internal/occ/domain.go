package occ

import (
	"sync"
	"sync/atomic"
)

// epochBits is the number of low bits of a TID reserved for the per-epoch
// sequence number; the epoch occupies the bits above it (below the kv status
// bits).
const epochBits = 40

// Domain is a concurrency control domain: the unit within which Silo's OCC
// protocol alone guarantees serializability. ReactDB creates one Domain per
// database container.
//
// TIDs generated by a domain are monotonically increasing and greater than
// every TID observed in the read or write set of the committing transaction,
// as required by Silo. A single atomic counter per domain is used instead of
// Silo's per-worker TID generation; with the virtual-core executor model this
// is not a scalability bottleneck and keeps recovery-free TIDs simple.
type Domain struct {
	name  string
	epoch atomic.Uint64
	seq   atomic.Uint64

	committed atomic.Uint64
	aborted   atomic.Uint64

	// group-commit accounting (see CommitPreparedBatch)
	batches      atomic.Uint64
	batchedTxns  atomic.Uint64
	largestBatch atomic.Uint64

	// pool recycles finished transactions (see Txn.Release) so steady-state
	// Begin calls reuse read/write-set slices, key arenas and spill maps.
	pool sync.Pool
}

// NewDomain creates a concurrency control domain. The name is used only for
// diagnostics.
func NewDomain(name string) *Domain {
	d := &Domain{name: name}
	d.epoch.Store(1)
	return d
}

// Name returns the diagnostic name of the domain.
func (d *Domain) Name() string { return d.name }

// Epoch returns the current epoch number. Epochs only partition the TID
// space. Recovery and a replica's apply loop move the epoch past every TID
// they install (ObserveRecoveredTID), so TIDs generated afterwards are
// strictly newer than anything in the log.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// nextTID returns a fresh TID strictly greater than minOver, the largest TID
// observed by the committing transaction.
func (d *Domain) nextTID(minOver uint64) uint64 {
	for {
		tid := (d.epoch.Load() << epochBits) | (d.seq.Add(1) & (1<<epochBits - 1))
		if tid > minOver {
			return tid
		}
		// Observed a TID from a later epoch (a record installed with a newer
		// TID than this domain generated); catch the epoch up and retry.
		d.epoch.Add(1)
	}
}

// Stats returns the number of transactions committed and aborted in this
// domain since creation.
func (d *Domain) Stats() (committed, aborted uint64) {
	return d.committed.Load(), d.aborted.Load()
}

// Begin starts a transaction against this domain, drawing from the pool of
// released transactions when one is available.
func (d *Domain) Begin() *Txn {
	if t, ok := d.pool.Get().(*Txn); ok {
		t.domain = d
		return t
	}
	return &Txn{domain: d}
}

// CommitPreparedBatch is the domain's group-commit hook: it runs the write
// phase of every prepared transaction in the batch and returns one error slot
// per transaction (nil on success). Transactions not in the prepared state
// get ErrTxnClosed in their slot; the rest of the batch still commits. The
// caller (the leader of an engine container's commit queue) is responsible
// for making the batch durable — amortizing that cost over the batch is the
// point of grouping.
func (d *Domain) CommitPreparedBatch(txns []*Txn) []error {
	errs := make([]error, len(txns))
	var committed uint64
	for i, t := range txns {
		if _, err := t.CommitPrepared(); err != nil {
			errs[i] = err
			continue
		}
		committed++
	}
	if committed > 0 {
		d.batches.Add(1)
		d.batchedTxns.Add(committed)
		for {
			cur := d.largestBatch.Load()
			if committed <= cur || d.largestBatch.CompareAndSwap(cur, committed) {
				break
			}
		}
	}
	return errs
}

// GroupCommitStats returns the number of group-commit batches flushed, the
// number of transactions committed through batches, and the largest batch
// seen.
func (d *Domain) GroupCommitStats() (batches, txns, largest uint64) {
	return d.batches.Load(), d.batchedTxns.Load(), d.largestBatch.Load()
}
