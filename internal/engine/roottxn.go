package engine

import (
	"cmp"
	"errors"
	"sort"
	"sync"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/occ"
	"reactdb/internal/wal"
)

// ErrConflict is returned by Execute when the transaction failed
// serializability validation (single-container OCC validation or the prepare
// phase of two-phase commit) and was aborted. Clients may retry.
var ErrConflict = errors.New("engine: transaction aborted due to serialization conflict")

// Profile is the per-transaction latency breakdown used to validate the
// computational cost model (paper §4.2.2, Figure 6, Table 1). Durations are
// measured on the root transaction's executor.
type Profile struct {
	// Total is the end-to-end latency observed by the client, including input
	// handling in Execute.
	Total time.Duration
	// SyncExec is the processing time of the root procedure and of
	// synchronously inlined sub-transactions on the root executor (the first
	// two components of the cost equation).
	SyncExec time.Duration
	// Cs is the accumulated cost of sending sub-transaction invocations to
	// reactors in other containers.
	Cs time.Duration
	// Cr is the accumulated cost of receiving sub-transaction results from
	// other containers.
	Cr time.Duration
	// BlockedWait is the time the root execution context spent blocked on
	// futures of sub-transactions running in other containers. For program
	// formulations that synchronize immediately it plays the role of the
	// synchronous child execution cost; for asynchronous formulations it is
	// the paper's async-execution component.
	BlockedWait time.Duration
	// Commit is the time spent in the commit protocol (OCC validation and, for
	// multi-container transactions, two-phase commit).
	Commit time.Duration
	// RemoteCalls is the number of sub-transactions dispatched to other
	// containers.
	RemoteCalls int
	// Containers is the number of containers touched by the transaction.
	Containers int
	// Aborted reports whether the transaction aborted.
	Aborted bool
}

// task is one (sub-)transaction request dispatched to an executor.
type task struct {
	root     *rootTxn
	reactor  string
	procName string
	proc     core.Procedure
	args     core.Args
	executor *Executor
	future   *core.Future
	isRoot   bool

	// gate is the admission gate that issued this root task's in-flight
	// token, set at submit; the token is released exactly once through
	// releaseToken when the transaction completes, aborts, or panics.
	gate *admissionGate

	// enqueuedAt is stamped when the task joins an executor's request queue;
	// the run loop measures scheduling delay from it.
	enqueuedAt time.Time
}

// newSession places the core session a task is about to run under: in the
// root transaction's own state for the root task, on the heap for a
// dispatched sub-transaction.
func (t *task) newSession(s coreSession) *coreSession {
	session := &t.root.session
	if !t.isRoot {
		session = new(coreSession)
	}
	*session = s
	return session
}

// releaseToken returns the task's admission token, if it holds one, exactly
// once.
func (t *task) releaseToken() {
	if t.gate != nil {
		t.gate.release()
		t.gate = nil
	}
}

// rootTxn is the runtime state of a root transaction: its active set (§2.2.4
// safety condition), the per-container OCC transactions it has touched, and
// its latency profile. It also holds, by value, everything the root request
// itself runs with — its task, the future its caller waits on, its execution
// context and its core session — so that starting a root transaction is one
// allocation. The lifetime is the garbage collector's: sub-transactions and
// wait hooks keep pointers into it for as long as they need.
type rootTxn struct {
	db        *Database
	id        uint64
	activeSet core.ActiveSet

	mu sync.Mutex
	// touched lists the containers accessed and the OCC transaction on each,
	// in touch order (which fixes the iteration order of two-phase commit).
	// It starts out backed by inline; a transaction spanning more than two
	// containers outgrows that through append.
	touched []touch
	inline  [2]touch

	profMu  sync.Mutex
	profile Profile

	task    task
	future  core.Future
	ctx     execContext
	session coreSession
}

// touch is one container a root transaction accessed and its OCC transaction
// there.
type touch struct {
	c   *Container
	txn *occ.Txn
}

// txnFor returns the OCC transaction of this root on the given container,
// creating it on first touch.
func (r *rootTxn) txnFor(c *Container) *occ.Txn {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.touched {
		if t.c == c {
			return t.txn
		}
	}
	if r.touched == nil {
		r.touched = r.inline[:0]
	}
	txn := c.domain.Begin()
	r.touched = append(r.touched, touch{c: c, txn: txn})
	return txn
}

// touchedContainers returns the containers this transaction accessed, with
// their transactions, in touch order. The slice is the transaction's own:
// callers run after every sub-transaction has completed (commit, abort,
// release), when nothing appends to it any more, and must not modify it.
func (r *rootTxn) touchedContainers() []touch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.touched
}

func (r *rootTxn) addCs(d time.Duration) {
	r.profMu.Lock()
	r.profile.Cs += d
	r.profile.RemoteCalls++
	r.profMu.Unlock()
}

func (r *rootTxn) addCr(d time.Duration) {
	r.profMu.Lock()
	r.profile.Cr += d
	r.profMu.Unlock()
}

func (r *rootTxn) addBlocked(d time.Duration) {
	r.profMu.Lock()
	r.profile.BlockedWait += d
	r.profMu.Unlock()
}

// mapCommitErr converts occ-level conflict errors into the engine's public
// ErrConflict, passing every other error through.
func mapCommitErr(err error) error {
	if errors.Is(err, occ.ErrConflict) {
		return ErrConflict
	}
	return err
}

// commit runs the commitment protocol over every container the transaction
// touched: validate and submit to the container's commit pipeline when a
// single container is involved, two-phase commit with OCC validation as the
// vote otherwise (§3.2.2); a read-only one bypasses the pipeline
// (awaitObserved). It returns ErrConflict on validation failure. session is
// the executor core session of the committing task.
func (r *rootTxn) commit(session *coreSession) error {
	if r.db.cfg.DisableCC {
		return nil
	}
	touched := r.touchedContainers()
	if len(touched) == 0 {
		return nil
	}
	if len(touched) > 1 {
		return r.commitTwoPhase(touched, session)
	}
	c, txn := touched[0].c, touched[0].txn
	if err := txn.Prepare(); err != nil {
		return mapCommitErr(err)
	}
	if txn.ReadOnly() {
		if err := c.awaitObserved(session); err != nil {
			_ = txn.AbortPrepared()
			return err
		}
		_, err := txn.CommitPrepared()
		return err
	}
	done, lead, err := c.submit(gcEntry{txn: txn})
	if err != nil {
		// The queue stopped before accepting the transaction (shutdown racing
		// the tail of an in-flight commit); release its locks and report the
		// closure instead of blocking on a flush that will never happen.
		_ = txn.AbortPrepared()
		return err
	}
	// Same core rule as commitTwoPhase: the core is released while the commit
	// can wait (a log force, a hold or another's batch) and re-acquired after
	// the write phase; the prepared transaction keeps its OCC locks. Queued
	// first, entries join in the order their transactions ran. A queue with
	// nothing to share has every submitter lead a flush that waits on nothing.
	if session != nil && c.queue.share {
		session.release()
		defer session.acquire()
	}
	if lead {
		c.lead()
	}
	return mapCommitErr(<-done)
}

// commitTwoPhase runs the atomic commit protocol for a multi-container
// transaction over the participants' write-ahead logs (presumed abort, with
// CockroachDB's parallel commits):
//
//  1. Vote: OCC-prepare (lock + validate) every participant.
//  2. Read-only participants append nothing; each waits inline until every
//     write it observed is durable and shipped (awaitObserved), which on a
//     log that is not mid-force costs nothing.
//  3. One forced round: every writing participant's prepare record — its
//     staged write set, tagged with the root's global id — goes to its
//     container's commit pipeline, and the decision record, naming the
//     writing participants, rides in the same batch as the coordinator's
//     prepare (the coordinator is the lowest-numbered writer; the decision
//     shares its TID). Every share is queued before any is led, the shares
//     the coordinator must lead are led concurrently (one on its own
//     goroutine), so the round is one concurrent forced round in every
//     configuration, and it waits once, then for its shipping to semi-sync
//     replicas. The commit point is "the decision and every
//     prepare it names are durable": recovery and replicas commit a group
//     iff they hold all of them, and presume abort otherwise.
//  4. Install every participant's writes and release its locks.
//
// Any failure before step 4 aborts every participant: no write was installed
// yet, and every record the round may have appended is retracted with a
// tombstone, best-effort — the coordinator's retracts the decision with it —
// so a failed round never becomes a complete one. Presumed abort covers a
// round whose tombstones are lost too, unless every one of its records became
// durable (an outcome the client was never promised). Once step 3 succeeds the
// transaction is committed and step 4 must run on every participant —
// returning early would leave the remaining prepared participants holding
// their OCC locks forever.
func (r *rootTxn) commitTwoPhase(touched []touch, session *coreSession) error {
	// Prepare participants in ascending container order, not touch order:
	// two transactions touching the same containers in opposite orders would
	// otherwise each hold one container's record latches while spinning on
	// the other's — a cross-container deadlock Prepare's per-container lock
	// sorting cannot see. A deterministic global order makes the latch
	// acquisition graph cycle-free; it also fixes the coordinator (the
	// lowest-numbered writer) independently of touch order.
	touched = append([]touch(nil), touched...)
	sort.Slice(touched, func(i, j int) bool { return touched[i].c.id < touched[j].c.id })

	// Phase one: prepare (lock + validate) every participant — the vote.
	prepared := make([]*occ.Txn, 0, len(touched))
	for _, t := range touched {
		if err := t.txn.Prepare(); err != nil {
			for _, p := range prepared {
				_ = p.AbortPrepared()
			}
			// Participants after the failing one never prepared; abort them so
			// their domains count the abort.
			for _, later := range touched[len(prepared)+1:] {
				later.txn.Abort()
			}
			return mapCommitErr(err)
		}
		prepared = append(prepared, t.txn)
	}

	// Build the round's records before appending anywhere, so an AssignTID
	// failure still aborts with nothing written: each writer's share is its
	// prepare, and the coordinator's also the decision. Without a WAL (every
	// container of a database has one, or none does) there are none.
	writers := make([]*Container, 0, len(touched))
	shares := make([][]wal.Record, 0, len(touched))
	if touched[0].c.wal != nil {
		for i, txn := range prepared {
			if txn.ReadOnly() {
				continue
			}
			rec, err := walRecordPrepared(txn)
			if err != nil {
				r.abortPrepared(prepared)
				return err
			}
			writers = append(writers, touched[i].c)
			rec.Kind, rec.GlobalID, rec.Coordinator = wal.KindPrepare, r.id, uint64(writers[0].id)
			shares = append(shares, append(make([]wal.Record, 0, 2), rec))
		}
	}
	if len(writers) > 0 {
		parts := make([]uint64, len(writers))
		for i, c := range writers {
			parts[i] = uint64(c.id)
		}
		shares[0] = append(shares[0], wal.Record{Kind: wal.KindDecision, TID: shares[0][0].TID, GlobalID: r.id, Participants: parts})
	}

	// The executor core is released for the rest of the protocol whenever a
	// log force can make us wait: the waits are log latency, not CPU work —
	// and, crucially, the write phase of phase four must run *before* the
	// core is re-acquired. A request running on this executor may be
	// spinning on one of our prepared record latches while holding the core;
	// re-acquiring first would deadlock the two (single-container commits
	// follow the same rule, see commit).
	if session != nil && touched[0].c.wal != nil {
		session.release()
		defer session.acquire()
	}

	// Phase two: the read-only participants' waits, before any record exists,
	// so a failed one has nothing to retract.
	for i, txn := range prepared {
		if txn.ReadOnly() {
			if err := touched[i].c.awaitObserved(nil); err != nil {
				r.abortPrepared(prepared)
				return err
			}
		}
	}

	// Phase three: queue every writer's share of the round, lead the queues
	// this round found leaderless, wait once for the forces, then for the
	// mirrors. A share queued before a refusal is still led: its queue has
	// no other leader.
	waits := make([]<-chan error, len(writers))
	var inline [4]*Container
	leaders := inline[:0]
	var forceErr error
	for i, c := range writers {
		var lead bool
		if waits[i], lead, forceErr = c.submit(gcEntry{recs: shares[i]}); forceErr != nil {
			break
		}
		if lead {
			leaders = append(leaders, c)
		}
	}
	if len(leaders) > 0 {
		for _, c := range leaders[1:] {
			go c.lead()
		}
		leaders[0].lead()
	}
	for _, ch := range waits {
		if ch != nil {
			forceErr = cmp.Or(forceErr, <-ch)
		}
	}
	for _, c := range writers {
		if forceErr == nil {
			forceErr = c.db.repl.waitShipped(c.id, c.wal.DurableLSN())
		}
	}
	if forceErr != nil {
		for i, c := range writers {
			c.retractRecord(shares[i][0].TID)
		}
		r.abortPrepared(prepared)
		return forceErr
	}

	// Phase four: the round is durable — install every participant's writes
	// and release its locks. Every participant must run its write phase even
	// if an earlier one reports an error; the first error is remembered and
	// reported after the loop completes.
	var firstErr error
	for _, txn := range prepared {
		if _, err := txn.CommitPrepared(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abortPrepared releases every participant's OCC locks without installing any
// write. No exit path of the commit protocol may skip a prepared participant:
// a leaked prepared transaction holds its record locks forever.
func (r *rootTxn) abortPrepared(prepared []*occ.Txn) {
	for _, p := range prepared {
		_ = p.AbortPrepared()
	}
}

// abortAll aborts every per-container transaction that is still active, used
// when the procedure logic itself failed (user abort, dangerous structure,
// runtime error).
func (r *rootTxn) abortAll() {
	for _, t := range r.touchedContainers() {
		t.txn.Abort()
	}
}

// release returns every per-container OCC transaction to its domain's pool so
// the next Begin on that domain reuses its read/write-set slices and key
// arena. It must only run once the root transaction has fully committed or
// aborted and nothing — commit queue, 2PC coordinator, sub-transaction —
// can touch the transactions again; Txn.Release itself refuses transactions
// that still hold locks.
func (r *rootTxn) release() {
	for _, t := range r.touchedContainers() {
		t.txn.Release()
	}
}

// snapshotProfile returns a copy of the accumulated profile.
func (r *rootTxn) snapshotProfile() Profile {
	r.profMu.Lock()
	defer r.profMu.Unlock()
	p := r.profile
	p.Containers = len(r.touchedContainers())
	return p
}
