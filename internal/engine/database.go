package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// Database is a running ReactDB instance: a reactor database (logical
// declaration, package core) deployed on a concrete architecture (Config).
type Database struct {
	def *core.DatabaseDef
	cfg Config

	containers []*Container
	placement  map[string]*Container // reactor name -> hosting container

	nextTxnID atomic.Uint64

	// inflight counts root transactions between admission and completion;
	// Close waits for it to drain before shutting down executor run loops, so
	// in-flight transactions (and the sub-transactions they may still
	// dispatch) always find live queues.
	inflight sync.WaitGroup

	// commitGate is the checkpointer's quiesce point: every root
	// transaction's commit protocol (WAL appends through in-memory installs,
	// including aborts' retractions) runs under the read lock, and
	// Checkpoint takes the write lock momentarily to observe an LSN at which
	// nothing is between "appended" and "installed". See checkpoint.go.
	commitGate sync.RWMutex

	// ckptMu serializes whole-database checkpoints, and holds them off while
	// a replica bootstraps from this database's blobs.
	ckptMu sync.Mutex

	// term is the node's failover term — epoch, fence and promotion cut, one
	// durable record on its storage — shared with every container log.
	// Distinct from the OCC domains' TID epochs. See failover.go.
	term *wal.Term

	// repl tracks attached replicas: semi-sync commit acknowledgments wait on
	// it, and checkpoint truncation clamps to its shipping floor. See
	// replication.go.
	repl *replicationHub

	// replica marks the inner database of a Replica, whose logs are its
	// mirrors: writes fail with ErrReplicaRead, read-only commits wait on no
	// log, and Checkpoint, Heartbeat and Recover refuse. PromoteReplica
	// clears it with reads running.
	replica atomic.Bool

	closed atomic.Bool
}

// Open deploys the reactor database described by def according to cfg. The
// same definition can be opened under any configuration — the paper's central
// virtualization property: database architecture is a deployment decision.
func Open(def *core.DatabaseDef, cfg Config) (*Database, error) {
	return open(def, cfg, false)
}

// open is Open, as a replica's inner database when replica is set: a mirror
// appends no record of its own, so the storage's failover term is not in
// force until promotion (wal.NewTerm) — a fence left by the node this storage
// once served would refuse its syncs.
func open(def *core.DatabaseDef, cfg Config, replica bool) (*Database, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db := &Database{
		def:       def,
		cfg:       cfg,
		placement: make(map[string]*Container),
	}
	db.replica.Store(replica)
	// The term is loaded before any container log opens, so a restarted
	// deposed primary refuses writes from the start.
	switch {
	case cfg.Durability.Mode != DurabilityWAL:
		db.term = new(wal.Term)
	case replica:
		db.term = wal.NewTerm(cfg.Durability.Storage)
	default:
		var err error
		if db.term, err = wal.LoadTerm(cfg.Durability.Storage); err != nil {
			return nil, fmt.Errorf("engine: read epoch state: %w", err)
		}
	}
	db.repl = newReplicationHub(db.term.Fenced)
	for i := 0; i < cfg.Containers; i++ {
		c, err := newContainer(db, i)
		if err != nil {
			for _, created := range db.containers {
				created.shutdown()
			}
			return nil, err
		}
		db.containers = append(db.containers, c)
	}
	for _, reactor := range def.Reactors() {
		c := db.containers[cfg.placementFor(reactor)]
		typ := def.TypeOf(reactor)
		if err := c.addReactor(reactor, typ.Relations()); err != nil {
			// Containers already spawned run-loop goroutines and opened logs;
			// reclaim them instead of leaking on a failed Open.
			for _, created := range db.containers {
				created.shutdown()
			}
			return nil, err
		}
		db.placement[reactor] = c
	}
	return db, nil
}

// MustOpen is Open that panics on error, for examples and tests with static
// configurations.
func MustOpen(def *core.DatabaseDef, cfg Config) *Database {
	db, err := Open(def, cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Close stops background work. Transactions in flight are allowed to finish;
// Execute must not be called after Close.
func (db *Database) Close() {
	if db.closed.CompareAndSwap(false, true) {
		db.inflight.Wait()
		for _, c := range db.containers {
			c.shutdown()
		}
	}
}

// IsReplica reports whether this is a replica's database, whose logs mirror
// a primary's and which rejects writes; PromoteReplica makes it a primary.
func (db *Database) IsReplica() bool { return db.replica.Load() }

// Definition returns the logical database declaration.
func (db *Database) Definition() *core.DatabaseDef { return db.def }

// Config returns the deployment configuration in use.
func (db *Database) Config() Config { return db.cfg }

// Containers returns the database containers.
func (db *Database) Containers() []*Container { return db.containers }

// containerOf returns the container hosting the reactor, or nil.
func (db *Database) containerOf(reactor string) *Container { return db.placement[reactor] }

// ContainerIndexOf returns the index of the container hosting the reactor and
// whether the reactor is declared. Experiment drivers use it to build
// placement-aware workloads (e.g. "destination accounts span all containers").
func (db *Database) ContainerIndexOf(reactor string) (int, bool) {
	c, ok := db.placement[reactor]
	if !ok {
		return 0, false
	}
	return c.id, true
}

// Execute runs a root transaction: the named procedure on the named reactor
// with the given arguments (§2.2.3). It blocks until the transaction commits
// or aborts and returns the procedure result. Aborts due to serialization
// conflicts return ErrConflict; application aborts return the error produced
// by the procedure (see core.Abortf).
func (db *Database) Execute(reactor, procedure string, args ...any) (any, error) {
	res, _, err := db.ExecuteProfiled(reactor, procedure, args...)
	return res, err
}

// ExecuteProfiled is Execute returning, in addition, the latency profile used
// by the cost-model experiments.
func (db *Database) ExecuteProfiled(reactor, procedure string, args ...any) (any, Profile, error) {
	start := time.Now()
	proc, err := db.procedure(reactor, procedure)
	if err != nil {
		return nil, Profile{}, err
	}
	res, root, err := db.runRoot(db.containerOf(reactor), reactor, procedure, proc, core.Args(args))
	if root == nil {
		return nil, Profile{}, err
	}
	profile := root.snapshotProfile()
	profile.Total = time.Since(start)
	profile.Aborted = err != nil
	return res, profile, err
}

// procedure resolves the named procedure of a reactor's type.
func (db *Database) procedure(reactor, name string) (core.Procedure, error) {
	typ := db.def.TypeOf(reactor)
	if typ == nil {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownReactor, reactor)
	}
	proc := typ.Procedure(name)
	if proc == nil {
		return nil, fmt.Errorf("%w: %s.%s", core.ErrUnknownProcedure, reactor, name)
	}
	return proc, nil
}

// runRoot runs proc as a new root transaction hosted on the reactor and blocks
// until it has committed or aborted. The transaction's whole bookkeeping —
// active set, touched containers, the root task, its future, execution context
// and core session — is the one rootTxn allocated here. The task joins its
// executor's request queue (admission control may block here or return
// ErrOverloaded) and the executor's run loop starts it in FIFO order. A nil
// rootTxn means the transaction was never dispatched.
func (db *Database) runRoot(container *Container, reactor, procName string, proc core.Procedure, args core.Args) (any, *rootTxn, error) {
	root := &rootTxn{db: db, id: db.nextTxnID.Add(1)}
	// The root transaction itself occupies its reactor.
	if err := root.activeSet.Enter(reactor); err != nil {
		return nil, nil, err
	}
	root.task = task{
		root:     root,
		reactor:  reactor,
		procName: procName,
		proc:     proc,
		args:     args,
		executor: container.route(reactor),
		future:   &root.future,
		isRoot:   true,
	}
	db.inflight.Add(1)
	if err := root.task.executor.submit(&root.task); err != nil {
		db.inflight.Done()
		return nil, nil, err
	}
	res, err := root.future.Get()
	db.inflight.Done()
	return res, root, err
}

// runTask executes one (sub-)transaction request on its executor. The caller
// hands over a coreSession that already holds the executor core; runTask
// charges per-request costs, runs the procedure, enforces completion of all
// child sub-transactions and, for root transactions, runs the commit
// protocol. The task's future is resolved with the result.
func (db *Database) runTask(t *task, session *coreSession) {
	// The admission token is surrendered on every exit from this function —
	// commit, abort, unknown-reactor failure, or a panic that escapes the
	// procedure-level recover in invoke — so a crashed request can never
	// strand a slot of its executor's queue depth.
	defer t.releaseToken()
	t.executor.chargeEntry(t.reactor)

	// The root request's context lives in its rootTxn; a dispatched
	// sub-transaction's is its own.
	ctx := &t.root.ctx
	if !t.isRoot {
		ctx = new(execContext)
	}
	*ctx = execContext{
		db:        db,
		root:      t.root,
		container: t.executor.container,
		executor:  t.executor,
		session:   session,
		reactor:   t.reactor,
		catalog:   t.executor.container.catalog(t.reactor),
		txn:       t.root.txnFor(t.executor.container),
	}
	var res any
	var err error
	if ctx.catalog == nil {
		err = fmt.Errorf("%w: %s not hosted in container %d", core.ErrUnknownReactor, t.reactor, t.executor.container.id)
	} else {
		res, err = db.invoke(ctx, t.proc, t.args)
		if waitErr := ctx.waitChildren(); err == nil {
			err = waitErr
		}
	}
	ctx.releaseScratch()

	if t.isRoot {
		commitStart := time.Now()
		// The commit gate (held shared) delimits the whole commit protocol —
		// first WAL append through last install, including abort-path
		// retractions — as one atomic span from the checkpointer's point of
		// view; see checkpoint.go for the quiesce argument.
		db.acquireCommitGate(session)
		if err != nil {
			t.root.abortAll()
			// A re-read that saw a newer version fails early with occ's
			// conflict; report it as the conflict validation would have.
			err = mapCommitErr(err)
		} else {
			err = t.root.commit(session)
		}
		db.commitGate.RUnlock()
		t.root.profMu.Lock()
		t.root.profile.Commit = time.Since(commitStart)
		t.root.profMu.Unlock()
		// The protocol is over on every container: recycle the per-container
		// transactions into their domains' pools. With CC disabled the
		// transactions were never committed or aborted, and Release's implicit
		// abort would skew the domain counters — leave them for the GC.
		if !db.cfg.DisableCC {
			t.root.release()
		}
	}

	session.release()
	if !t.isRoot {
		t.root.activeSet.Exit(t.reactor)
	}
	// Before the caller can observe completion: a client that resubmits the
	// moment its result arrives must find the slot free.
	t.releaseToken()
	t.future.Resolve(res, err)
}

// invoke runs a procedure, converting panics into errors so a buggy stored
// procedure aborts its transaction instead of crashing the engine.
func (db *Database) invoke(ctx *execContext, proc core.Procedure, args core.Args) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reactor: procedure panic on %s: %v", ctx.reactor, r)
		}
	}()
	return proc(ctx, args)
}

// --- Loading and inspection --------------------------------------------------

// Load inserts a row into one of a reactor's relations outside of any
// transaction. It is meant for benchmark loaders and example setup; it must
// not run concurrently with transactions touching the same relation.
func (db *Database) Load(reactor, relation string, row rel.Row) error {
	c := db.containerOf(reactor)
	if c == nil {
		return fmt.Errorf("%w: %s", core.ErrUnknownReactor, reactor)
	}
	tbl := c.catalog(reactor).Table(relation)
	if tbl == nil {
		return fmt.Errorf("%w: %s.%s", core.ErrUnknownRelation, reactor, relation)
	}
	return tbl.LoadRow(row)
}

// FinishLoad makes a completed bulk load durable by forcing an initial
// checkpoint. Loader writes go through Table.LoadRow at TID 0 and bypass the
// WAL, so before the first checkpoint they exist only in memory: a crash
// after load but before any checkpoint used to require re-running the loader
// before Recover. Calling FinishLoad once after the last Load closes that
// gap — the checkpoint captures every loaded base row, and any subsequent
// restart recovers from it plus the log suffix with no loader involved.
// Under durability modes without a WAL it is a no-op.
func (db *Database) FinishLoad() error {
	if db.cfg.Durability.Mode != DurabilityWAL {
		return nil
	}
	return db.Checkpoint()
}

// MustLoad is Load that panics on error.
func (db *Database) MustLoad(reactor, relation string, row rel.Row) {
	if err := db.Load(reactor, relation, row); err != nil {
		panic(err)
	}
}

// ReadRow performs a non-transactional read of a row by primary key, for
// verification in tests and examples, between commits (on a replica, between
// apply rounds). It returns nil if the row is absent.
func (db *Database) ReadRow(reactor, relation string, keyVals ...any) (rel.Row, error) {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	c := db.containerOf(reactor)
	if c == nil {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownReactor, reactor)
	}
	tbl := c.catalog(reactor).Table(relation)
	if tbl == nil {
		return nil, fmt.Errorf("%w: %s.%s", core.ErrUnknownRelation, reactor, relation)
	}
	key, err := tbl.Schema().AppendKeyPrefix(nil, keyVals)
	if err != nil {
		return nil, err
	}
	return tbl.ReadRow(key)
}

// TableLen returns the number of indexed keys in a reactor's relation,
// including logically deleted rows. Tests use it for coarse sanity checks.
func (db *Database) TableLen(reactor, relation string) int {
	c := db.containerOf(reactor)
	if c == nil {
		return 0
	}
	tbl := c.catalog(reactor).Table(relation)
	if tbl == nil {
		return 0
	}
	return tbl.Len()
}

// Stats aggregates commit/abort counters across all containers.
func (db *Database) Stats() (committed, aborted uint64) {
	for _, c := range db.containers {
		co, ab := c.domain.Stats()
		committed += co
		aborted += ab
	}
	return committed, aborted
}

// ExecutorUtilization returns the utilization of every executor, indexed by
// container then executor, mirroring the per-core hardware utilization numbers
// the paper reports.
func (db *Database) ExecutorUtilization() [][]float64 {
	out := make([][]float64, len(db.containers))
	for i, c := range db.containers {
		for _, e := range c.executors {
			out[i] = append(out[i], e.Utilization())
		}
	}
	return out
}

// ResetExecutorStats restarts the utilization measurement window on every
// executor (called at the start of a measurement run).
func (db *Database) ResetExecutorStats() {
	for _, c := range db.containers {
		for _, e := range c.executors {
			e.ResetStats()
		}
	}
}
