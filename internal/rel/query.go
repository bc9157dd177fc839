package rel

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator usable in query filters.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL-ish spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// AggFunc is an aggregate function usable in queries.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// Source is one input of a query: a relation read under an alias from one or
// more reactors (the union of the relation's rows across those reactors). An
// empty reactor list means "the current reactor" when the query runs inside a
// procedure via Context.Query; Database.Query requires explicit reactors.
type Source struct {
	Alias    string
	Relation string
	Reactors []string
}

// Filter is a single-column predicate on one source.
type Filter struct {
	Alias string
	Col   string
	Op    CmpOp
	Value any
}

// JoinPred is an equi-join predicate between two sources.
type JoinPred struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Col  string // qualified input column ("alias.col"); empty for AggCount
	As   string // output column name
}

// OrderSpec orders the final output by one of its columns.
type OrderSpec struct {
	Col  string
	Desc bool
}

// Query is a declarative read-only query over the relations of one or many
// reactors, built incrementally: sources (From), predicates (Where), equi-
// joins (Join), aggregation (GroupBy + Sum/Count/...), projection (Select),
// ordering (OrderBy) and Limit. Builder methods record the first error and
// make every later call a no-op, so call sites can chain without intermediate
// checks; execution surfaces the recorded error.
//
// Join orders are chosen by a statistics-free greedy planner over the actual
// materialized input sizes (see planner.go).
type Query struct {
	sources []Source
	filters []Filter
	joins   []JoinPred
	groupBy []string
	aggs    []AggSpec
	project []string
	order   []OrderSpec
	limit   int
	err     error
}

// NewQuery returns an empty query.
func NewQuery() *Query { return &Query{} }

func (q *Query) fail(format string, args ...any) *Query {
	if q.err == nil {
		q.err = fmt.Errorf("rel: query: "+format, args...)
	}
	return q
}

// From adds a source: relation read under alias from the given reactors.
func (q *Query) From(alias, relation string, reactors ...string) *Query {
	if q.err != nil {
		return q
	}
	if alias == "" || relation == "" {
		return q.fail("From needs an alias and a relation")
	}
	for _, s := range q.sources {
		if s.Alias == alias {
			return q.fail("duplicate source alias %q", alias)
		}
	}
	q.sources = append(q.sources, Source{Alias: alias, Relation: relation, Reactors: reactors})
	return q
}

// Where adds a predicate on one source's column.
func (q *Query) Where(alias, col string, op CmpOp, value any) *Query {
	if q.err != nil {
		return q
	}
	if op > Ge {
		return q.fail("invalid comparison operator on %s.%s", alias, col)
	}
	q.filters = append(q.filters, Filter{Alias: alias, Col: col, Op: op, Value: value})
	return q
}

// Join adds an equi-join predicate between two sources.
func (q *Query) Join(leftAlias, leftCol, rightAlias, rightCol string) *Query {
	if q.err != nil {
		return q
	}
	if leftAlias == rightAlias {
		return q.fail("join joins alias %q with itself", leftAlias)
	}
	q.joins = append(q.joins, JoinPred{LeftAlias: leftAlias, LeftCol: leftCol, RightAlias: rightAlias, RightCol: rightCol})
	return q
}

// GroupBy groups the aggregate outputs by the given qualified columns
// ("alias.col"). Without aggregates it is an error at execution.
func (q *Query) GroupBy(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	q.groupBy = append(q.groupBy, cols...)
	return q
}

// Count adds a COUNT(*) aggregate output named as.
func (q *Query) Count(as string) *Query { return q.agg(AggCount, "", as) }

// Sum adds a SUM(col) aggregate output named as; col is "alias.col".
func (q *Query) Sum(col, as string) *Query { return q.agg(AggSum, col, as) }

// Min adds a MIN(col) aggregate output named as.
func (q *Query) Min(col, as string) *Query { return q.agg(AggMin, col, as) }

// Max adds a MAX(col) aggregate output named as.
func (q *Query) Max(col, as string) *Query { return q.agg(AggMax, col, as) }

// Avg adds an AVG(col) aggregate output named as.
func (q *Query) Avg(col, as string) *Query { return q.agg(AggAvg, col, as) }

func (q *Query) agg(fn AggFunc, col, as string) *Query {
	if q.err != nil {
		return q
	}
	if as == "" {
		return q.fail("aggregate needs an output name")
	}
	if fn != AggCount && col == "" {
		return q.fail("aggregate %q needs an input column", as)
	}
	q.aggs = append(q.aggs, AggSpec{Func: fn, Col: col, As: as})
	return q
}

// Select projects the output to the given qualified columns ("alias.col").
// Queries with aggregates ignore Select (their output is groupBy + aggs).
func (q *Query) Select(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	q.project = append(q.project, cols...)
	return q
}

// OrderBy sorts the final output by the named output column.
func (q *Query) OrderBy(col string, desc bool) *Query {
	if q.err != nil {
		return q
	}
	q.order = append(q.order, OrderSpec{Col: col, Desc: desc})
	return q
}

// Limit caps the number of output rows. Zero means unlimited.
func (q *Query) Limit(n int) *Query {
	if q.err != nil {
		return q
	}
	if n < 0 {
		return q.fail("negative limit %d", n)
	}
	q.limit = n
	return q
}

// Err returns the first error recorded by the builder, if any.
func (q *Query) Err() error { return q.err }

// Sources returns the declared sources (callers must not modify the slice).
func (q *Query) Sources() []Source { return q.sources }

// Filters returns the predicates declared on alias.
func (q *Query) Filters(alias string) []Filter {
	var out []Filter
	for _, f := range q.filters {
		if f.Alias == alias {
			out = append(out, f)
		}
	}
	return out
}

// The remaining accessors expose the built query component-by-component, in
// declaration order, so a wire front-end can serialize a query and rebuild it
// with the same builder calls on the other side (see internal/server).
// Callers must not modify the returned slices.

// AllFilters returns every declared predicate.
func (q *Query) AllFilters() []Filter { return q.filters }

// Joins returns the declared equi-join predicates.
func (q *Query) Joins() []JoinPred { return q.joins }

// GroupCols returns the GroupBy columns.
func (q *Query) GroupCols() []string { return q.groupBy }

// Aggregates returns the aggregate output specs.
func (q *Query) Aggregates() []AggSpec { return q.aggs }

// Projection returns the Select columns.
func (q *Query) Projection() []string { return q.project }

// Ordering returns the OrderBy specs.
func (q *Query) Ordering() []OrderSpec { return q.order }

// LimitCount returns the output row cap (zero means unlimited).
func (q *Query) LimitCount() int { return q.limit }

// Result is the materialized output of a query.
type Result struct {
	// Columns are the output column names: qualified "alias.col" names, or
	// groupBy columns followed by aggregate names for aggregate queries.
	Columns []string
	// Rows are the output tuples, parallel to Columns.
	Rows []Row
	// JoinOrder is the alias order the planner chose (diagnostics).
	JoinOrder []string
	// AccessPaths records, per alias, how the leaf was read ("scan",
	// "pk-prefix", or "index:<name>"), aggregated across reactors.
	AccessPaths map[string]string
}

// Col returns the position of the named output column, or -1.
func (r *Result) Col(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// LeafBatch is one materialized query input: the rows of one source (possibly
// the union over several reactors), fetched transactionally by the engine.
// The engine may overselect (e.g. return index-prefix candidates); Execute
// re-applies every filter exactly before planning.
type LeafBatch struct {
	Schema *Schema
	Rows   []Row
	Path   string // access path description for diagnostics
}

// FetchFunc materializes one source. The filters argument carries the
// predicates declared on the source's alias, so the fetcher can pick an
// access path (primary-key prefix, secondary index, or full scan).
type FetchFunc func(src Source, filters []Filter) (*LeafBatch, error)

// Execute validates and runs the query: it materializes every source through
// fetch, re-applies the filters, plans the join order, and runs the operator
// pipeline (scan → filter → joins → aggregate/project → order → limit).
func (q *Query) Execute(fetch FetchFunc) (*Result, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.sources) == 0 {
		return nil, fmt.Errorf("rel: query: no sources")
	}

	// Materialize and filter every leaf.
	leaves := make([]*leaf, len(q.sources))
	paths := make(map[string]string, len(q.sources))
	for i, src := range q.sources {
		filters := q.Filters(src.Alias)
		batch, err := fetch(src, filters)
		if err != nil {
			return nil, err
		}
		lf, err := newLeaf(src.Alias, batch.Schema, batch.Rows, filters)
		if err != nil {
			return nil, err
		}
		leaves[i] = lf
		paths[src.Alias] = batch.Path
	}

	// Validate join predicates against the leaves.
	for _, j := range q.joins {
		for _, side := range []struct{ alias, col string }{
			{j.LeftAlias, j.LeftCol}, {j.RightAlias, j.RightCol},
		} {
			lf := findLeaf(leaves, side.alias)
			if lf == nil {
				return nil, fmt.Errorf("rel: query: join references unknown alias %q", side.alias)
			}
			if lf.schema.Col(side.col) < 0 {
				return nil, fmt.Errorf("rel: query: join column %s.%s does not exist", side.alias, side.col)
			}
		}
	}

	plan, err := planJoins(leaves, q.joins)
	if err != nil {
		return nil, err
	}
	op := plan.root

	// Aggregation, ordering, projection. Like SQL, ORDER BY can reference
	// columns the projection drops, so without aggregation the sort runs
	// before the projection; with aggregation it orders the aggregate output.
	switch {
	case len(q.aggs) > 0:
		if op, err = newAggOp(op, q.groupBy, q.aggs); err != nil {
			return nil, err
		}
		if len(q.order) > 0 {
			if op, err = newOrderOp(op, q.order); err != nil {
				return nil, err
			}
		}
	case len(q.groupBy) > 0:
		return nil, fmt.Errorf("rel: query: GroupBy without aggregates")
	default:
		if len(q.order) > 0 {
			if op, err = newOrderOp(op, q.order); err != nil {
				return nil, err
			}
		}
		if len(q.project) > 0 {
			if op, err = newProjectOp(op, q.project); err != nil {
				return nil, err
			}
		}
	}
	if q.limit > 0 {
		op = &limitOp{child: op, n: q.limit}
	}

	res := &Result{Columns: op.Columns(), JoinOrder: plan.order, AccessPaths: paths}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, row)
	}
}

// leaf is one filtered, materialized query input with qualified column names.
type leaf struct {
	alias  string
	schema *Schema
	cols   []string // qualified "alias.col" names
	rows   []Row
}

func findLeaf(leaves []*leaf, alias string) *leaf {
	for _, lf := range leaves {
		if lf.alias == alias {
			return lf
		}
	}
	return nil
}

// newLeaf runs the fetched rows through the scan and filter operators
// (filters are evaluated here, below the joins, regardless of whether the
// engine's access path already narrowed the candidates) and materializes the
// result so the planner can see actual post-filter sizes.
func newLeaf(alias string, schema *Schema, rows []Row, filters []Filter) (*leaf, error) {
	preds := make([]predicate, 0, len(filters))
	for _, f := range filters {
		ci := schema.Col(f.Col)
		if ci < 0 {
			return nil, fmt.Errorf("rel: query: filter column %s.%s does not exist", alias, f.Col)
		}
		want, err := normalize(f.Value, schema.Columns()[ci].Type)
		if err != nil {
			return nil, fmt.Errorf("rel: query: filter on %s.%s: %w", alias, f.Col, err)
		}
		ci, op := ci, f.Op
		preds = append(preds, func(row Row) (bool, error) {
			c, err := compareValues(row[ci], want)
			if err != nil {
				return false, err
			}
			return opHolds(op, c), nil
		})
	}
	cols := make([]string, schema.NumColumns())
	for i, c := range schema.Columns() {
		cols[i] = alias + "." + c.Name
	}
	var op Operator = &sliceScan{cols: cols, rows: rows}
	if len(preds) > 0 {
		op = &filterOp{child: op, preds: preds}
	}
	out, err := drain(op)
	if err != nil {
		return nil, err
	}
	return &leaf{alias: alias, schema: schema, cols: cols, rows: out}, nil
}

// opHolds interprets a three-way comparison under op.
func opHolds(op CmpOp, cmp int) bool {
	switch op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	}
	return false
}

// compareValues compares two canonical row values of the same column type.
func compareValues(a, b any) (int, error) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		if !ok {
			return 0, typeMismatch(a, b)
		}
		return cmpOrdered(av, bv), nil
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return 0, typeMismatch(a, b)
		}
		return cmpOrdered(av, bv), nil
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, typeMismatch(a, b)
		}
		return strings.Compare(av, bv), nil
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, typeMismatch(a, b)
		}
		switch {
		case av == bv:
			return 0, nil
		case !av:
			return -1, nil
		default:
			return 1, nil
		}
	case []byte:
		bv, ok := b.([]byte)
		if !ok {
			return 0, typeMismatch(a, b)
		}
		return strings.Compare(string(av), string(bv)), nil
	}
	return 0, fmt.Errorf("rel: query: cannot compare %T values", a)
}

func typeMismatch(a, b any) error {
	return fmt.Errorf("rel: query: cannot compare %T with %T", a, b)
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
