package engine

import (
	"fmt"

	"reactdb/internal/core"
	"reactdb/internal/rel"
	"reactdb/internal/vclock"
)

// Query runs a declarative read-only query as its own root transaction: the
// ad-hoc entry point of the query layer (procedures use Context.Query
// instead, inside their own transaction). Every source must name the reactors
// it reads — there is no "current reactor" outside a procedure. The root is
// hosted on the first source's first reactor; remote sources fan out as read
// sub-transactions over the same future machinery as procedure calls, and the
// commit protocol validates the read and scan sets, so results are
// serializable with every concurrent writer.
func (db *Database) Query(q *rel.Query) (*rel.Result, error) {
	if err := q.Err(); err != nil {
		return nil, err
	}
	srcs := q.Sources()
	if len(srcs) == 0 {
		return nil, fmt.Errorf("engine: query declares no sources")
	}
	for _, s := range srcs {
		if len(s.Reactors) == 0 {
			return nil, fmt.Errorf("engine: query source %q names no reactors (only Context.Query has a current reactor)", s.Alias)
		}
	}
	home := srcs[0].Reactors[0]
	container := db.containerOf(home)
	if container == nil {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownReactor, home)
	}
	res, _, err := db.runRoot(container, home, "query", func(ctx core.Context, _ core.Args) (any, error) {
		return ctx.Query(q)
	}, nil)
	if err != nil {
		return nil, err
	}
	return res.(*rel.Result), nil
}

// Query implements core.Context: it executes the query inside the current
// root transaction. Sources with no explicit reactors read the current
// reactor; sources naming reactors in other containers are fetched through
// dispatched read sub-transactions exactly like Call, overlapping their
// communication.
func (c *execContext) Query(q *rel.Query) (*rel.Result, error) {
	return q.Execute(c.fetchLeaf)
}

// fetchLeaf materializes one query source: the union of the relation's rows
// across the source's reactors, narrowed by the best access path the filters
// admit. Remote reactors are dispatched first so their scans overlap; local
// reactors are read inline.
func (c *execContext) fetchLeaf(src rel.Source, filters []rel.Filter) (*rel.LeafBatch, error) {
	reactors := src.Reactors
	if len(reactors) == 0 {
		reactors = []string{c.reactor}
	}
	cfg := &c.db.cfg

	type remote struct {
		reactor string
		fut     *core.Future
	}
	var remotes []remote
	var locals []string

	for _, r := range reactors {
		if r == c.reactor {
			locals = append(locals, r)
			continue
		}
		if !c.db.def.HasReactor(r) {
			return nil, fmt.Errorf("%w: %s", core.ErrUnknownReactor, r)
		}
		target := c.db.containerOf(r)
		if target == c.container && !cfg.DisableSameContainerInlining {
			locals = append(locals, r)
			continue
		}
		// Cross-container read sub-transaction: same dispatch discipline as
		// Call — safety condition, send cost, routed task, tracked future.
		if !cfg.DisableActiveSetCheck {
			if err := c.root.activeSet.Enter(r); err != nil {
				return nil, err
			}
		}
		if cfg.Costs.Send > 0 {
			vclock.Spin(cfg.Costs.Send)
		}
		c.root.addCs(cfg.Costs.Send)
		fut := core.NewFuture()
		c.installWaitHooks(fut)
		relation, flt := src.Relation, filters
		t := &task{
			root:     c.root,
			reactor:  r,
			procName: "query.scan",
			proc: func(ctx core.Context, _ core.Args) (any, error) {
				return ctx.(*execContext).fetchLocal(relation, flt)
			},
			executor: target.router.Route(r),
			future:   fut,
			isRoot:   false,
		}
		c.trackChild(fut)
		if err := c.db.dispatch(t); err != nil {
			if !cfg.DisableActiveSetCheck {
				c.root.activeSet.Exit(r)
			}
			fut.Resolve(nil, err)
			return nil, err
		}
		remotes = append(remotes, remote{reactor: r, fut: fut})
	}

	batch := &rel.LeafBatch{}
	merge := func(part *rel.LeafBatch) {
		if batch.Schema == nil {
			batch.Schema = part.Schema
		}
		batch.Rows = append(batch.Rows, part.Rows...)
		switch {
		case batch.Path == "":
			batch.Path = part.Path
		case batch.Path != part.Path:
			batch.Path = "mixed"
		}
	}

	for _, r := range locals {
		part, err := c.fetchLocalOn(r, src.Relation, filters)
		if err != nil {
			return nil, err
		}
		merge(part)
	}
	for _, rm := range remotes {
		res, err := rm.fut.Get()
		if err != nil {
			return nil, err
		}
		merge(res.(*rel.LeafBatch))
	}
	if batch.Schema == nil {
		// No reactor contributed (empty source list can't happen; defensive).
		return nil, fmt.Errorf("engine: query source %q resolved no reactors", src.Alias)
	}
	return batch, nil
}

// fetchLocalOn reads one reactor's relation from within the current container
// (the current reactor itself, or a same-container sibling inlined like a
// same-container Call).
func (c *execContext) fetchLocalOn(reactor, relation string, filters []rel.Filter) (*rel.LeafBatch, error) {
	if reactor == c.reactor {
		return c.fetchLocal(relation, filters)
	}
	cfg := &c.db.cfg
	if !cfg.DisableActiveSetCheck {
		if err := c.root.activeSet.Enter(reactor); err != nil {
			return nil, err
		}
		defer c.root.activeSet.Exit(reactor)
	}
	target := c.db.containerOf(reactor)
	child := &execContext{
		db:        c.db,
		root:      c.root,
		container: target,
		executor:  c.executor,
		session:   c.session,
		reactor:   reactor,
		catalog:   target.catalog(reactor),
		txn:       c.root.txnFor(target),
	}
	if child.catalog == nil {
		return nil, fmt.Errorf("%w: %s not hosted in container %d", core.ErrUnknownReactor, reactor, target.id)
	}
	batch, err := child.fetchLocal(relation, filters)
	child.releaseScratch()
	return batch, err
}

// fetchLocal reads the current reactor's relation under the cheapest access
// path the equality filters admit: a primary-key prefix scan, a secondary-
// index prefix scan, or a full scan. Residual predicates are always
// re-applied by the query layer, so overselection is harmless; underselection
// is impossible because a path is only chosen when its prefix columns are
// all bound by equality.
func (c *execContext) fetchLocal(relation string, filters []rel.Filter) (*rel.LeafBatch, error) {
	tbl, err := c.table(relation)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	// Columns bound by equality predicates.
	eq := make(map[int]any)
	for _, f := range filters {
		if f.Op != rel.Eq {
			continue
		}
		if ci := schema.Col(f.Col); ci >= 0 {
			if _, dup := eq[ci]; !dup {
				eq[ci] = f.Value
			}
		}
	}

	// Longest primary-key prefix covered.
	var pkVals []any
	for _, ki := range schema.KeyColumns() {
		v, ok := eq[ki]
		if !ok {
			break
		}
		pkVals = append(pkVals, v)
	}

	// Longest-covered secondary index.
	bestIdx, bestLen := -1, 0
	for pos, ix := range schema.Indexes() {
		n := 0
		for _, ci := range ix.ColumnIndices() {
			if _, ok := eq[ci]; !ok {
				break
			}
			n++
		}
		if n > bestLen {
			bestIdx, bestLen = pos, n
		}
	}

	switch {
	case len(pkVals) > 0 && len(pkVals) >= bestLen:
		rows, err := c.SelectAll(relation, pkVals...)
		if err != nil {
			return nil, err
		}
		return &rel.LeafBatch{Schema: schema, Rows: rows, Path: "pk-prefix"}, nil
	case bestIdx >= 0:
		ix := schema.Indexes()[bestIdx]
		vals := make([]any, 0, bestLen)
		for _, ci := range ix.ColumnIndices()[:bestLen] {
			vals = append(vals, eq[ci])
		}
		rows, err := c.indexScan(tbl, bestIdx, vals)
		if err != nil {
			return nil, err
		}
		return &rel.LeafBatch{Schema: schema, Rows: rows, Path: "index:" + ix.Name()}, nil
	default:
		rows, err := c.SelectAll(relation)
		if err != nil {
			return nil, err
		}
		return &rel.LeafBatch{Schema: schema, Rows: rows, Path: "scan"}, nil
	}
}

// indexScan reads the rows whose secondary-index entries match the given
// prefix values. The table is registered for phantom validation (any
// committed write that adds, removes or moves an index entry bumps the
// structural version), every candidate row is read transactionally through
// its primary record, and the transaction's own buffered writes — which are
// not in the index until commit — are overlaid afterwards. Overselection
// (candidates whose current value no longer matches, buffered rows outside
// the prefix) is corrected by the query layer's residual filters.
func (c *execContext) indexScan(tbl *rel.Table, pos int, prefixVals []any) ([]rel.Row, error) {
	schema := tbl.Schema()
	ix := schema.Indexes()[pos]
	s := getKeyScratch()
	prefix, err := schema.AppendIndexPrefix(s.buf[:0], ix, prefixVals)
	if err != nil {
		putKeyScratch(s, s.buf)
		return nil, err
	}
	if err := c.txn.RegisterScan(tbl); err != nil {
		putKeyScratch(s, prefix)
		return nil, err
	}
	// Primary keys collected here are the entry records' immutable payloads —
	// stable slices, referenced without copying.
	var pks [][]byte
	tbl.AscendIndexPrefix(pos, prefix, func(pk []byte) bool {
		pks = append(pks, pk)
		return true
	})
	putKeyScratch(s, prefix)
	seen := make(map[string]bool, len(pks))
	var rows []rel.Row
	for _, pk := range pks {
		rec := tbl.Get(pk)
		if rec == nil {
			continue
		}
		data, present, err := c.txn.Read(rec)
		if err != nil {
			return nil, err
		}
		seen[string(pk)] = true
		if !present {
			continue
		}
		row, err := schema.DecodeRow(data)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	// Overlay buffered inserts and updates of this transaction: rows it wrote
	// are visible to its own scans even though their index entries install
	// only at commit.
	var overlayErr error
	c.txn.EachPendingWrite(tbl, func(_ []byte, data []byte, deleted bool) {
		if overlayErr != nil || deleted || data == nil {
			return
		}
		row, err := schema.DecodeRow(data)
		if err != nil {
			overlayErr = err
			return
		}
		pk, err := schema.KeyOf(row)
		if err != nil {
			overlayErr = err
			return
		}
		if seen[pk] {
			return
		}
		seen[pk] = true
		rows = append(rows, row)
	})
	return rows, overlayErr
}
