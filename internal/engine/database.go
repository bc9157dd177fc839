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

	// ckptMu serializes whole-database checkpoints (background timer vs
	// on-demand Checkpoint calls).
	ckptMu   sync.Mutex
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// walEpoch and walFence mirror the durable failover EpochState loaded at
	// Open (wal.ReadEpochState): the primary term this node's logs append
	// under, and the term below which appends are fenced. Distinct from the
	// OCC domains' TID epochs. See failover.go.
	walEpoch atomic.Uint64
	walFence atomic.Uint64

	// promoCut, set only on databases created by PromoteReplica, is the
	// per-container physical log tail at the instant of promotion — the last
	// LSN of the old timeline this node holds. Records it appends above the
	// cut (recovery tombstones, new-epoch commits) belong to the new timeline
	// and may differ in content from what a surviving replica holds at the
	// same LSNs, so repairStorage must reconcile survivors against the cut,
	// not against the current durable LSN. Zero means "no safe cut known for
	// this shard" and forces a wipe + fresh bootstrap.
	promoCut []uint64

	adaptStop chan struct{}
	adaptWG   sync.WaitGroup

	// repl tracks attached replicas: semi-sync commit acknowledgments wait on
	// it, and checkpoint truncation clamps to its shipping floor. See
	// replication.go.
	repl *replicationHub

	closed atomic.Bool
}

// Open deploys the reactor database described by def according to cfg. The
// same definition can be opened under any configuration — the paper's central
// virtualization property: database architecture is a deployment decision.
func Open(def *core.DatabaseDef, cfg Config) (*Database, error) {
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
		ckptStop:  make(chan struct{}),
		adaptStop: make(chan struct{}),
	}
	db.repl = newReplicationHub(db.Fenced)
	if cfg.Durability.Mode == DurabilityWAL {
		// Load the node's failover term before any container log opens so the
		// very first append already carries the right epoch — and a fenced
		// deposed primary refuses writes from the moment it restarts.
		st, err := wal.ReadEpochState(cfg.Durability.Storage)
		if err != nil {
			return nil, fmt.Errorf("engine: read epoch state: %w", err)
		}
		db.walEpoch.Store(st.Epoch)
		db.walFence.Store(st.FenceBelow)
	}
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
			// Containers already spawned run-loop and committer goroutines;
			// reclaim them instead of leaking on a failed Open.
			for _, created := range db.containers {
				created.shutdown()
			}
			return nil, err
		}
		db.placement[reactor] = c
	}
	if cfg.Durability.CheckpointInterval > 0 {
		db.ckptWG.Add(1)
		go db.checkpointLoop()
	}
	if cfg.AdaptiveDepth.Enabled {
		db.adaptWG.Add(1)
		go db.adaptLoop()
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
		// Stop the background checkpointer before tearing containers down: a
		// checkpoint racing shutdown would truncate against a closing log.
		close(db.ckptStop)
		db.ckptWG.Wait()
		// Stop the depth controller before draining: a controller tick racing
		// executor shutdown would rotate histograms of a dying run loop.
		close(db.adaptStop)
		db.adaptWG.Wait()
		db.inflight.Wait()
		for _, c := range db.containers {
			c.shutdown()
		}
	}
}

// adaptLoop is the adaptive admission controller (Config.AdaptiveDepth):
// every interval it reads each executor's queue-wait p99 over the window just
// ended and moves that executor's in-flight token limit — multiplicative
// decrease when the tail exceeds the target (overload: admitting less is the
// only way admitted work waits less), gentle additive increase once the tail
// falls below half the target (headroom: reclaim throughput). Executors whose
// window saw no completed queue wait are left alone; an idle executor has no
// evidence to act on.
//
// The effective latency target coordinates with group commit: with batched
// commit enabled, every acknowledged root waits up to the flush window, so
// queue-wait tails of that order are inherent to the durability configuration
// rather than evidence of overload. Shrinking depth cannot push latency below
// the batching delay, so the AIMD loop floors its target at the group-commit
// window (see adaptiveTarget) instead of collapsing to Floor and giving up
// throughput for nothing.
func (db *Database) adaptLoop() {
	defer db.adaptWG.Done()
	a := db.cfg.AdaptiveDepth
	target := db.adaptiveTarget()
	ticker := time.NewTicker(a.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-db.adaptStop:
			return
		case <-ticker.C:
			for _, c := range db.containers {
				for _, e := range c.executors {
					win := e.waitWindow.Rotate()
					if win.Count == 0 {
						continue
					}
					p99 := time.Duration(win.Quantile(0.99))
					_, limit, _ := e.gate.snapshot()
					switch {
					case p99 > target && limit > a.Floor:
						next := limit / 2
						if next < a.Floor {
							next = a.Floor
						}
						e.gate.setLimit(next)
					case p99 < target/2 && limit < a.Ceiling:
						next := limit + 1 + limit/8
						if next > a.Ceiling {
							next = a.Ceiling
						}
						e.gate.setLimit(next)
					}
				}
			}
		}
	}
}

// adaptiveTarget returns the queue-wait p99 the depth controller steers
// toward: the configured TargetP99, floored at the group-commit window when
// batched commit is enabled (commit acknowledgement latency cannot fall below
// the flush cadence, so targeting less would only thrash depth downward).
func (db *Database) adaptiveTarget() time.Duration {
	target := db.cfg.AdaptiveDepth.TargetP99
	if db.cfg.GroupCommit.Enabled && db.cfg.GroupCommit.Window > target {
		target = db.cfg.GroupCommit.Window
	}
	return target
}

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
		affine:   db.cfg.pinnedAffinity(),
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
	// strand a slot of its executor's effective depth.
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
// verification in tests and examples. It returns nil if the row is absent.
func (db *Database) ReadRow(reactor, relation string, keyVals ...any) (rel.Row, error) {
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
