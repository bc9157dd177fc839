package server

import (
	"fmt"
	"math"

	"reactdb/internal/rel"
)

// The query codec serializes a built rel.Query component-by-component through
// its read accessors and rebuilds it on the far side with the same builder
// calls, so a wire query plans and executes exactly as its in-process
// counterpart would (including the Naive ablation switch). Filter values ride
// the value codec; a query holding a builder error is refused at encode time
// rather than shipped broken.

func appendQuery(dst []byte, q *rel.Query) ([]byte, error) {
	if err := q.Err(); err != nil {
		return nil, err
	}
	sources := q.Sources()
	dst = appendUvarint(dst, uint64(len(sources)))
	for _, s := range sources {
		dst = appendString(dst, s.Alias)
		dst = appendString(dst, s.Relation)
		dst = appendUvarint(dst, uint64(len(s.Reactors)))
		for _, rc := range s.Reactors {
			dst = appendString(dst, rc)
		}
	}
	filters := q.AllFilters()
	dst = appendUvarint(dst, uint64(len(filters)))
	var err error
	for _, f := range filters {
		dst = appendString(dst, f.Alias)
		dst = appendString(dst, f.Col)
		dst = append(dst, uint8(f.Op))
		if dst, err = appendValue(dst, f.Value, 0); err != nil {
			return nil, fmt.Errorf("server: encode filter %s.%s: %w", f.Alias, f.Col, err)
		}
	}
	joins := q.Joins()
	dst = appendUvarint(dst, uint64(len(joins)))
	for _, j := range joins {
		dst = appendString(dst, j.LeftAlias)
		dst = appendString(dst, j.LeftCol)
		dst = appendString(dst, j.RightAlias)
		dst = appendString(dst, j.RightCol)
	}
	groupBy := q.GroupCols()
	dst = appendUvarint(dst, uint64(len(groupBy)))
	for _, c := range groupBy {
		dst = appendString(dst, c)
	}
	aggs := q.Aggregates()
	dst = appendUvarint(dst, uint64(len(aggs)))
	for _, a := range aggs {
		dst = append(dst, uint8(a.Func))
		dst = appendString(dst, a.Col)
		dst = appendString(dst, a.As)
	}
	project := q.Projection()
	dst = appendUvarint(dst, uint64(len(project)))
	for _, c := range project {
		dst = appendString(dst, c)
	}
	order := q.Ordering()
	dst = appendUvarint(dst, uint64(len(order)))
	for _, o := range order {
		dst = appendString(dst, o.Col)
		dst = appendBool(dst, o.Desc)
	}
	dst = appendUvarint(dst, uint64(q.LimitCount()))
	dst = appendBool(dst, q.IsNaive())
	return dst, nil
}

func (r *reader) query() *rel.Query {
	q := rel.NewQuery()
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		alias, relation := r.string(), r.string()
		q.From(alias, relation, r.strings()...)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		alias, col := r.string(), r.string()
		op := rel.CmpOp(r.byte())
		q.Where(alias, col, op, r.value())
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		q.Join(r.string(), r.string(), r.string(), r.string())
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		q.GroupBy(r.string())
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		fn := rel.AggFunc(r.byte())
		col, as := r.string(), r.string()
		switch fn {
		case rel.AggCount:
			q.Count(as)
		case rel.AggSum:
			q.Sum(col, as)
		case rel.AggMin:
			q.Min(col, as)
		case rel.AggMax:
			q.Max(col, as)
		case rel.AggAvg:
			q.Avg(col, as)
		default:
			r.fail()
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		q.Select(r.string())
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		col := r.string()
		q.OrderBy(col, r.bool())
	}
	if limit := r.uvarint(); limit > 0 && limit <= math.MaxInt {
		q.Limit(int(limit))
	}
	if r.bool() {
		q.Naive()
	}
	return q
}
