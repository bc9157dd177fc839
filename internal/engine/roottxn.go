package engine

import (
	"errors"
	"sort"
	"sync"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/occ"
	"reactdb/internal/vclock"
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

	// affine marks a root task pinned by an application placement contract
	// (affinity router with an explicit Config.Affinity function): work
	// stealing never moves it off its routed executor.
	affine bool

	// gate is the admission gate that issued this root task's in-flight
	// token, set at submit; the token is released exactly once through
	// releaseToken when the transaction completes, aborts, or panics — even
	// when the task was stolen and ran on a different executor, the token
	// goes back to the executor that issued it.
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
// vote otherwise (§3.2.2). It returns ErrConflict on validation failure.
// session is the executor core session of the committing task.
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
	// Same core rule as commitTwoPhase: the core is released while the commit
	// waits on a real log force or a group-commit window and re-acquired only
	// after the pipeline ran the write phase. The prepared transaction keeps
	// its OCC locks meanwhile. A modeled log write without a committer is CPU
	// work charged on this core, so the core stays held.
	yield := (c.wal != nil || c.committer != nil) && session != nil
	if yield && c.committer == nil {
		// The batch of one is forced right here, inside submit.
		session.release()
		defer session.acquire()
	}
	done, ok := c.submit(gcEntry{txn: txn})
	if !ok {
		// The committer stopped before accepting the transaction (shutdown
		// racing the tail of an in-flight commit); release its locks and
		// report the closure instead of blocking on a flush that will never
		// happen.
		_ = txn.AbortPrepared()
		return errDatabaseClosed
	}
	if yield && c.committer != nil {
		// A committer has the entry — and its window timer armed — before the
		// executor moves on: entries join the batch in the order their
		// transactions ran, and the goroutine cannot lose the CPU to the next
		// request while it holds OCC locks that no window is timing yet.
		session.release()
		defer session.acquire()
	}
	return mapCommitErr(<-done)
}

// commitTwoPhase runs the atomic commit protocol for a multi-container
// transaction over the participants' write-ahead logs (presumed abort):
//
//  1. Vote: OCC-prepare (lock + validate) every participant.
//  2. Force a prepare record — the participant's staged write set, tagged
//     with the root's global id — into every participant's log, through each
//     container's group committer when one is running. Read-only
//     participants force a durability barrier instead, so every antecedent
//     they read is durable before the transaction can commit.
//  3. Force one decision record carrying the full participant set to the
//     coordinator's log (the lowest-numbered participant). This is the commit
//     point: recovery commits a prepared transaction iff its decision record
//     is durable, and presumes abort otherwise.
//  4. Install every participant's writes and release its locks.
//
// Any failure before the decision is durable aborts every participant: no
// write was installed yet, and durable prepare records are retracted
// best-effort (presumed abort covers them regardless). After step 3 the
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
	// lowest-numbered participant) independently of touch order.
	touched = append([]touch(nil), touched...)
	sort.Slice(touched, func(i, j int) bool { return touched[i].c.id < touched[j].c.id })
	containers := make([]*Container, len(touched))
	for i, t := range touched {
		containers[i] = t.c
	}

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

	// Build every participant's prepare record before appending anywhere: an
	// AssignTID failure here can still abort with no record written. Entries
	// stay nil for read-only participants and for containers without a WAL.
	recs := make([]*wal.Record, len(prepared))
	hasWrites := false
	for i, txn := range prepared {
		if containers[i].wal == nil {
			continue
		}
		rec, err := walRecordPrepared(txn)
		if err != nil {
			r.abortPrepared(prepared)
			return err
		}
		if len(rec.Writes) == 0 {
			continue
		}
		rec.Kind = wal.KindPrepare
		rec.GlobalID = r.id
		rec.Coordinator = uint64(containers[0].id)
		recs[i] = &rec
		hasWrites = true
	}

	// The executor core is released for the rest of the protocol whenever a
	// log force can make us wait: the waits are log latency, not CPU work —
	// and, crucially, the write phase of phase four must run *before* the
	// core is re-acquired. A request running on this executor may be
	// spinning on one of our prepared record latches while holding the core;
	// re-acquiring first would deadlock the two (single-container commits
	// follow the same rule, see commit).
	useWAL := false
	for _, c := range containers {
		if c.wal != nil {
			useWAL = true
		}
	}
	yield := useWAL && session != nil
	if yield {
		session.release()
		defer session.acquire()
	}

	// Phase two: force prepare records (durability barriers for read-only
	// participants) into every participant's log, concurrently.
	waits := make([]<-chan error, 0, len(prepared))
	var forceErr error
	for i := range prepared {
		ch, err := containers[i].forceRecord(recs[i])
		if err != nil && forceErr == nil {
			forceErr = err
		}
		if ch != nil {
			waits = append(waits, ch)
		}
	}
	if err := awaitAll(waits); err != nil && forceErr == nil {
		forceErr = err
	}
	if forceErr != nil {
		r.retractPrepares(containers, recs)
		r.abortPrepared(prepared)
		return forceErr
	}

	// Phase three: the commit point. One decision record, carrying the full
	// participant set, forced to the coordinator's log. Its TID is the
	// coordinator participant's TID so a retraction (failed append salvage)
	// stays precise. A fully read-only transaction has nothing to decide:
	// the barriers above already made its antecedents durable.
	if hasWrites && containers[0].wal != nil {
		decTID, err := prepared[0].AssignTID()
		if err != nil {
			r.retractPrepares(containers, recs)
			r.abortPrepared(prepared)
			return err
		}
		parts := make([]uint64, len(containers))
		for i, c := range containers {
			parts[i] = uint64(c.id)
		}
		dec := &wal.Record{Kind: wal.KindDecision, TID: decTID, GlobalID: r.id, Participants: parts}
		ch, err := containers[0].forceRecord(dec)
		if err == nil {
			err = awaitAll([]<-chan error{ch})
		}
		if err != nil {
			// Retract the decision record first: it may sit unfsynced in the
			// coordinator's log, and a later commit's fsync would make it
			// durable — recovery would then commit the prepares of this
			// failed transaction wherever their own tombstones didn't land.
			// A write coordinator's prepare retraction below shares the
			// decision's TID and covers it; a read-only coordinator has no
			// prepare record, so the decision needs its own tombstone.
			if recs[0] == nil {
				containers[0].retractRecord(decTID)
			}
			r.retractPrepares(containers, recs)
			r.abortPrepared(prepared)
			return err
		}
	}

	// Phase four: the decision is durable — install every participant's
	// writes and release its locks. Every participant must run its write
	// phase even if an earlier one reports an error; the first error is
	// remembered and reported after the loop completes.
	var firstErr error
	for i, txn := range prepared {
		if _, err := txn.CommitPrepared(); err != nil && firstErr == nil {
			firstErr = err
		}
		if lw := r.db.cfg.Costs.LogWrite; lw > 0 && containers[i].wal == nil {
			vclock.Spin(lw)
		}
	}
	return firstErr
}

// awaitAll waits for every outcome channel of an in-flight log force and
// returns the first error delivered. The caller has already released its
// executor core (see commitTwoPhase): the waits are group-commit window
// latency, not CPU work.
func awaitAll(waits []<-chan error) error {
	var firstErr error
	for _, ch := range waits {
		if err := <-ch; err != nil && firstErr == nil {
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

// retractPrepares appends best-effort abort tombstones for every prepare
// record the failed commit may have put into a participant log. Presumed
// abort already keeps recovery from committing the transaction (its decision
// record does not exist); the tombstones resolve the in-doubt records
// eagerly. A tombstone for a record whose append never succeeded is a no-op:
// abort records only retract earlier LSNs carrying the same TID.
func (r *rootTxn) retractPrepares(containers []*Container, recs []*wal.Record) {
	for i, rec := range recs {
		if rec != nil {
			containers[i].retractRecord(rec.TID)
		}
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
// aborted and nothing — group committer, 2PC coordinator, sub-transaction —
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
