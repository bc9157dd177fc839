package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/kv"
	"reactdb/internal/occ"
	"reactdb/internal/rel"
	"reactdb/internal/vclock"
)

// coreSession tracks ownership of an executor's virtual core by the goroutine
// running one (sub-)transaction task. It is used by exactly one goroutine, so
// it needs no synchronization; the wait hooks of futures created by that
// goroutine run on the same goroutine inside Future.Get.
type coreSession struct {
	exec       *Executor
	acquiredAt time.Time
	held       bool
}

func (s *coreSession) acquire() {
	if s.held {
		return
	}
	s.acquiredAt = s.exec.acquire()
	s.held = true
}

func (s *coreSession) release() {
	if !s.held {
		return
	}
	s.exec.release(s.acquiredAt)
	s.held = false
}

// execContext implements core.Context for one (sub-)transaction executing on
// one reactor. Sub-transactions inlined on the same executor share the
// coreSession of their parent; sub-transactions dispatched to other containers
// get their own task, executor and session.
type execContext struct {
	db        *Database
	root      *rootTxn
	container *Container
	executor  *Executor
	session   *coreSession
	reactor   string
	catalog   *rel.Catalog
	txn       *occ.Txn
	children  []*core.Future
	rng       *rand.Rand
	// scratch is the context-cached key buffer for point operations; see
	// execContext.keyScratch in keybuf.go for the ownership rules.
	scratch *keyScratch
}

var _ core.Context = (*execContext)(nil)

// Reactor implements core.Context.
func (c *execContext) Reactor() string { return c.reactor }

// Rand implements core.Context. The source is seeded from the root transaction
// id and the reactor name so runs are reproducible given a fixed workload.
func (c *execContext) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(c.root.id)*1_000_003 + int64(hashString(c.reactor))))
	}
	return c.rng
}

// Work implements core.Context: simulated CPU-bound processing on the
// executor's virtual core.
func (c *execContext) Work(d time.Duration) { vclock.Work(d) }

// Schema implements core.Context.
func (c *execContext) Schema(relation string) (*rel.Schema, error) {
	tbl, err := c.table(relation)
	if err != nil {
		return nil, err
	}
	return tbl.Schema(), nil
}

func (c *execContext) table(relation string) (*rel.Table, error) {
	tbl := c.catalog.Table(relation)
	if tbl == nil {
		return nil, fmt.Errorf("%w: %s on reactor %s", core.ErrUnknownRelation, relation, c.reactor)
	}
	return tbl, nil
}

// getRaw is the storage-level point read underneath Get: it builds the
// encoded key in pooled scratch, resolves the record, and returns the raw
// committed (or transaction-local) payload without decoding a row. The
// returned slice is the record's immutable payload (or an OCC-buffered write)
// and must not be mutated. It allocates nothing on the hit path — a pinned
// regression test holds it to 0 allocs/op.
func (c *execContext) getRaw(tbl *rel.Table, keyVals []any) ([]byte, bool, error) {
	s := c.keyScratch()
	key, err := tbl.Schema().AppendKeyPrefix(s.buf[:0], keyVals)
	if err != nil {
		return nil, false, err
	}
	rec := tbl.Get(key)
	s.buf = key[:0]
	if rec == nil {
		// Reading a missing key creates an anti-dependency on inserts of that
		// key; guard it with the table's structural version.
		if err := c.txn.RegisterScan(tbl); err != nil {
			return nil, false, err
		}
		return nil, false, nil
	}
	return c.txn.Read(rec)
}

// Get implements core.Context.
func (c *execContext) Get(relation string, keyVals ...any) (rel.Row, error) {
	tbl, err := c.table(relation)
	if err != nil {
		return nil, err
	}
	data, present, err := c.getRaw(tbl, keyVals)
	if err != nil || !present {
		return nil, err
	}
	return tbl.Schema().DecodeRow(data)
}

// GetView implements core.Context: the hit path allocates nothing — key
// encoding uses pooled scratch (getRaw) and the returned view decodes columns
// lazily from the record's payload in place.
func (c *execContext) GetView(relation string, keyVals ...any) (rel.RowView, bool, error) {
	tbl, err := c.table(relation)
	if err != nil {
		return rel.RowView{}, false, err
	}
	data, present, err := c.getRaw(tbl, keyVals)
	if err != nil || !present {
		return rel.RowView{}, false, err
	}
	return tbl.Schema().ViewRow(data), true, nil
}

// Insert implements core.Context.
func (c *execContext) Insert(relation string, row rel.Row) error {
	if c.db.replica.Load() {
		return ErrReplicaRead
	}
	tbl, err := c.table(relation)
	if err != nil {
		return err
	}
	data, err := tbl.Schema().EncodeRow(row)
	if err != nil {
		return err
	}
	s := c.keyScratch()
	key, err := tbl.Schema().AppendKey(s.buf[:0], row)
	if err != nil {
		return err
	}
	rec, _ := tbl.GetOrInsert(key)
	n := len(key)
	lk := appendLockKey(key, c.reactor, relation, key[:n])
	err = c.txn.Insert(rec, lk[n:], data, tbl)
	s.buf = lk[:0]
	if err != nil {
		if errors.Is(err, occ.ErrDuplicateKey) {
			// The key was committed by a concurrent transaction after this one
			// began (the serial-order insert would have succeeded); report a
			// serialization conflict so clients treat it as a retryable abort.
			return fmt.Errorf("%w: concurrent insert of the same key into %s.%s", ErrConflict, c.reactor, relation)
		}
		return err
	}
	return nil
}

// Update implements core.Context.
func (c *execContext) Update(relation string, row rel.Row) error {
	if c.db.replica.Load() {
		return ErrReplicaRead
	}
	tbl, err := c.table(relation)
	if err != nil {
		return err
	}
	data, err := tbl.Schema().EncodeRow(row)
	if err != nil {
		return err
	}
	s := c.keyScratch()
	key, err := tbl.Schema().AppendKey(s.buf[:0], row)
	if err != nil {
		return err
	}
	rec := tbl.Get(key)
	if rec == nil {
		s.buf = key[:0]
		return fmt.Errorf("%w: %s", core.ErrNoSuchRow, relation)
	}
	if _, present, err := c.txn.Read(rec); err != nil {
		s.buf = key[:0]
		return err
	} else if !present {
		s.buf = key[:0]
		return fmt.Errorf("%w: %s", core.ErrNoSuchRow, relation)
	}
	// Updates of indexed tables carry the table as their guard so the commit
	// install phase can move secondary-index entries under the structural
	// latch; unindexed updates stay guard-free (no structural change).
	var guard occ.ScanGuard
	if tbl.HasIndexes() {
		guard = tbl
	}
	n := len(key)
	lk := appendLockKey(key, c.reactor, relation, key[:n])
	err = c.txn.Write(rec, lk[n:], data, guard)
	s.buf = lk[:0]
	return err
}

// Delete implements core.Context.
func (c *execContext) Delete(relation string, keyVals ...any) error {
	if c.db.replica.Load() {
		return ErrReplicaRead
	}
	tbl, err := c.table(relation)
	if err != nil {
		return err
	}
	s := c.keyScratch()
	key, err := tbl.Schema().AppendKeyPrefix(s.buf[:0], keyVals)
	if err != nil {
		return err
	}
	rec := tbl.Get(key)
	if rec == nil {
		s.buf = key[:0]
		return fmt.Errorf("%w: %s", core.ErrNoSuchRow, relation)
	}
	if _, present, err := c.txn.Read(rec); err != nil {
		s.buf = key[:0]
		return err
	} else if !present {
		s.buf = key[:0]
		return fmt.Errorf("%w: %s", core.ErrNoSuchRow, relation)
	}
	n := len(key)
	lk := appendLockKey(key, c.reactor, relation, key[:n])
	err = c.txn.Delete(rec, lk[n:], tbl)
	s.buf = lk[:0]
	return err
}

// Scan implements core.Context.
func (c *execContext) Scan(relation string, fn func(row rel.Row) bool, prefixVals ...any) error {
	return c.scan(relation, fn, false, prefixVals...)
}

// ScanDesc implements core.Context.
func (c *execContext) ScanDesc(relation string, fn func(row rel.Row) bool, prefixVals ...any) error {
	return c.scan(relation, fn, true, prefixVals...)
}

func (c *execContext) scan(relation string, fn func(row rel.Row) bool, descending bool, prefixVals ...any) error {
	tbl, err := c.table(relation)
	if err != nil {
		return err
	}
	if err := c.txn.RegisterScan(tbl); err != nil {
		return err
	}
	// The prefix bounds live in pooled scratch held across the whole scan;
	// nested operations issued by fn draw their own buffers from the pool. The
	// exclusive upper bound is appended into the same buffer right after the
	// lower bound.
	s := getKeyScratch()
	buf := s.buf[:0]
	var lo, hi []byte
	if len(prefixVals) > 0 {
		buf, err = tbl.Schema().AppendKeyPrefix(buf, prefixVals)
		if err != nil {
			putKeyScratch(s, buf)
			return err
		}
		n := len(buf)
		var bounded bool
		buf, bounded = rel.AppendKeyPrefixSuccessor(buf, buf[:n])
		lo = buf[:n]
		if bounded {
			hi = buf[n:]
		}
	}
	defer putKeyScratch(s, buf)
	if descending {
		var iterErr error
		tbl.DescendRange(lo, hi, func(_ []byte, rec *kv.Record) bool {
			ok, err := c.visitRecord(tbl, rec, fn)
			if err != nil {
				iterErr = err
				return false
			}
			return ok
		})
		return iterErr
	}
	// Ascending scans run through a reusable cursor in slab-sized batches: one
	// tree latch acquisition per batch instead of one per scan, and the cursor
	// revalidates its position if fn's nested calls mutate the tree while the
	// task is blocked (cooperative multitasking).
	slab := getScanSlab()
	defer putScanSlab(slab)
	var cur kv.Cursor
	cur.Reset(tbl.Index(), lo, hi)
	for {
		n := cur.ScanBatch(slab.entries)
		if n == 0 {
			return nil
		}
		for i := 0; i < n; i++ {
			ok, err := c.visitRecord(tbl, slab.entries[i].Rec, fn)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
}

// visitRecord reads one scanned record through the transaction, decodes it and
// hands it to the caller's row callback. Absent rows are skipped (ok without a
// callback). It reports whether the scan should continue.
func (c *execContext) visitRecord(tbl *rel.Table, rec *kv.Record, fn func(row rel.Row) bool) (bool, error) {
	data, present, err := c.txn.Read(rec)
	if err != nil {
		return false, err
	}
	if !present {
		return true, nil
	}
	row, err := tbl.Schema().DecodeRow(data)
	if err != nil {
		return false, err
	}
	return fn(row), nil
}

// SelectAll implements core.Context.
func (c *execContext) SelectAll(relation string, prefixVals ...any) ([]rel.Row, error) {
	var rows []rel.Row
	err := c.Scan(relation, func(row rel.Row) bool {
		rows = append(rows, row)
		return true
	}, prefixVals...)
	return rows, err
}

// CallSync implements core.Context.
func (c *execContext) CallSync(reactor, procedure string, args ...any) (any, error) {
	fut, err := c.Call(reactor, procedure, args...)
	if err != nil {
		return nil, err
	}
	return fut.Get()
}

// Call implements core.Context: the asynchronous procedure call of the
// programming model (§2.2.2), routed by call.
func (c *execContext) Call(reactor, procedure string, args ...any) (*core.Future, error) {
	proc, err := c.db.procedure(reactor, procedure)
	if err != nil {
		return nil, err
	}
	return c.call(reactor, procedure, proc, core.Args(args))
}

// call runs proc on reactor as a sub-transaction of this context. It is the
// one place a call chooses how it reaches the code that runs it: calls to the
// current reactor are inlined; calls to reactors hosted in the same container
// execute synchronously on the calling executor (§3.2.1); calls to reactors in
// other containers are routed to an executor of the destination container and
// executed asynchronously, returning an unresolved future. Every call but the
// self-call enters its reactor into the root's active set first, the safety
// condition of §2.2.4.
func (c *execContext) call(reactor, procName string, proc core.Procedure, args core.Args) (*core.Future, error) {
	// Direct self-call: inline synchronously, sharing this context's
	// execution state.
	if reactor == c.reactor {
		res, err := c.runInline(c.container, reactor, proc, args)
		return c.trackChild(core.ResolvedFuture(res, err)), nil
	}
	target := c.db.containerOf(reactor)
	if target == nil {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownReactor, reactor)
	}
	if err := c.root.activeSet.Enter(reactor); err != nil {
		return nil, err
	}

	// Same-container call: execute synchronously within the same transaction
	// executor to avoid migration of control.
	if target == c.container {
		defer c.root.activeSet.Exit(reactor)
		res, err := c.runInline(target, reactor, proc, args)
		return c.trackChild(core.ResolvedFuture(res, err)), nil
	}

	// Cross-container call: charge the send cost and queue a task on the
	// executor the destination container routes it to.
	cfg := &c.db.cfg
	if cfg.Costs.Send > 0 {
		vclock.Spin(cfg.Costs.Send)
	}
	c.root.addCs(cfg.Costs.Send)

	fut := core.NewFuture()
	c.installWaitHooks(fut)
	t := &task{
		root:     c.root,
		reactor:  reactor,
		procName: procName,
		proc:     proc,
		args:     args,
		executor: target.route(reactor),
		future:   fut,
	}
	c.trackChild(fut)
	if err := t.executor.submit(t); err != nil {
		// The request never reached an executor (queue closed mid-shutdown).
		// Resolve the tracked future so waitChildren observes the failure
		// instead of hanging, and undo the active-set entry the task's
		// completion would have removed.
		c.root.activeSet.Exit(reactor)
		fut.Resolve(nil, err)
		return nil, err
	}
	return fut, nil
}

// trackChild records a child sub-transaction future so that waitChildren can
// enforce the completion rule and surface errors even when the application
// never synchronizes on the future (the paper's semantics: any abort in a
// sub-transaction aborts the root transaction).
func (c *execContext) trackChild(fut *core.Future) *core.Future {
	c.children = append(c.children, fut)
	return fut
}

// installWaitHooks wires cooperative multitasking and the receive cost (Cr)
// into a future returned for a cross-container call. The receive cost models
// the thread wake-up and switch on the caller's core when the caller actually
// has to block for the result; collecting a result that is already available
// costs nothing beyond reading memory, which is why asynchronous formulations
// largely overlap their receive costs (paper §4.2.1).
func (c *execContext) installWaitHooks(fut *core.Future) {
	cfg := &c.db.cfg
	blocked := false
	var blockedAt time.Time
	fut.SetWaitHooks(
		func() {
			blocked = true
			blockedAt = time.Now()
			c.session.release()
		},
		func() {
			c.session.acquire()
			c.root.addBlocked(time.Since(blockedAt))
		},
	)
	fut.SetDeliverHook(func() {
		if !blocked {
			return
		}
		if cfg.Costs.Receive > 0 {
			vclock.Spin(cfg.Costs.Receive)
		}
		c.root.addCr(cfg.Costs.Receive)
	})
}

// runInline executes a sub-transaction synchronously on the calling executor,
// sharing the caller's core session and the container's OCC transaction.
func (c *execContext) runInline(container *Container, reactor string, proc core.Procedure, args core.Args) (any, error) {
	child := &execContext{
		db:        c.db,
		root:      c.root,
		container: container,
		executor:  c.executor,
		session:   c.session,
		reactor:   reactor,
		catalog:   container.catalog(reactor),
		txn:       c.root.txnFor(container),
	}
	if child.catalog == nil {
		return nil, fmt.Errorf("%w: %s not hosted in container %d", core.ErrUnknownReactor, reactor, container.id)
	}
	res, err := c.db.invoke(child, proc, args)
	if waitErr := child.waitChildren(); err == nil {
		err = waitErr
	}
	child.releaseScratch()
	return res, err
}

// waitChildren enforces the programming model's completion rule: a (sub-)
// transaction completes only when all sub-transactions invoked in its context
// complete. It returns the first error any child reported.
func (c *execContext) waitChildren() error {
	var firstErr error
	for _, fut := range c.children {
		if _, err := fut.Get(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.children = nil
	return firstErr
}
