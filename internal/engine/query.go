package engine

import (
	"fmt"

	"reactdb/internal/core"
	"reactdb/internal/rel"
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
// reactor; every reactor a source names is read by an ordinary call (see
// call), so a reactor in another container is scanned by a read
// sub-transaction on its own executor, overlapping its communication.
func (c *execContext) Query(q *rel.Query) (*rel.Result, error) {
	return q.Execute(c.fetchLeaf)
}

// fetchLeaf materializes one query source: the union of the relation's rows
// across the source's reactors, narrowed by the best access path the filters
// admit. Reactors in other containers are called first so their scans overlap
// the local ones; the parts merge local reactors first, each group in
// declaration order.
func (c *execContext) fetchLeaf(src rel.Source, filters []rel.Filter) (*rel.LeafBatch, error) {
	reactors := src.Reactors
	if len(reactors) == 0 {
		reactors = []string{c.reactor}
	}
	scan := func(ctx core.Context, _ core.Args) (any, error) {
		return ctx.(*execContext).fetchLocal(src.Relation, filters)
	}
	callAll := func(local bool) ([]*core.Future, error) {
		var futs []*core.Future
		for _, r := range reactors {
			if (c.db.containerOf(r) == c.container) != local {
				continue
			}
			fut, err := c.call(r, "query.scan", scan, nil)
			if err != nil {
				return nil, err
			}
			futs = append(futs, fut)
		}
		return futs, nil
	}
	remotes, err := callAll(false)
	if err != nil {
		return nil, err
	}
	locals, err := callAll(true)
	if err != nil {
		return nil, err
	}

	batch := &rel.LeafBatch{}
	for _, fut := range append(locals, remotes...) {
		res, err := fut.Get()
		if err != nil {
			return nil, err
		}
		part := res.(*rel.LeafBatch)
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
	return batch, nil
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
