package rel

import (
	"fmt"
	"reflect"
	"testing"
)

// --- Index declaration validation (satellite: declaration-time checks) -------

func TestAddIndexValidation(t *testing.T) {
	mk := func() *Schema {
		return MustSchema("orders",
			[]Column{
				{Name: "id", Type: Int64},
				{Name: "cust", Type: Int64},
				{Name: "total", Type: Float64},
			}, "id")
	}
	if err := mk().AddIndex("by_cust", "cust"); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	if err := mk().AddIndex("bad", "no_such_col"); err == nil {
		t.Fatalf("index on unknown column accepted at declaration time")
	}
	if err := mk().AddIndex("empty"); err == nil {
		t.Fatalf("index without columns accepted")
	}
	if err := mk().AddIndex("", "cust"); err == nil {
		t.Fatalf("unnamed index accepted")
	}
	if err := mk().AddIndex("twice", "cust", "cust"); err == nil {
		t.Fatalf("index repeating a column accepted")
	}
	s := mk()
	if err := s.AddIndex("by_cust", "cust"); err != nil {
		t.Fatalf("first index rejected: %v", err)
	}
	if err := s.AddIndex("by_cust", "total"); err == nil {
		t.Fatalf("duplicate index name accepted")
	}
	if pos, ix := s.IndexNamed("by_cust"); pos != 0 || ix == nil {
		t.Fatalf("IndexNamed(by_cust) = (%d, %v)", pos, ix)
	}
	if pos, ix := s.IndexNamed("missing"); pos != -1 || ix != nil {
		t.Fatalf("IndexNamed(missing) = (%d, %v)", pos, ix)
	}
}

func TestSchemaRejectsDuplicateColumns(t *testing.T) {
	if _, err := NewSchema("dup",
		[]Column{{Name: "a", Type: Int64}, {Name: "a", Type: String}}, "a"); err == nil {
		t.Fatalf("duplicate column names accepted at declaration time")
	}
}

// --- Secondary index maintenance at the table level ---------------------------

func TestTableIndexMaintenance(t *testing.T) {
	schema := MustSchema("acct",
		[]Column{
			{Name: "id", Type: Int64},
			{Name: "branch", Type: String},
			{Name: "balance", Type: Float64},
		}, "id").
		MustAddIndex("by_branch", "branch")
	tbl := NewTable(schema)
	tbl.MustLoadRow(Row{int64(1), "north", 10.0})
	tbl.MustLoadRow(Row{int64(2), "south", 20.0})
	tbl.MustLoadRow(Row{int64(3), "north", 30.0})
	if got := tbl.IndexLen(0); got != 3 {
		t.Fatalf("index entries after load = %d, want 3", got)
	}

	lookup := func(branch string) []int64 {
		prefix, err := schema.EncodeIndexPrefix(schema.Indexes()[0], branch)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		tbl.AscendIndexPrefix(0, []byte(prefix), func(pk []byte) bool {
			row, err := tbl.ReadRow(pk)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, row.Int64(0))
			return true
		})
		return ids
	}
	if got := lookup("north"); !reflect.DeepEqual(got, []int64{1, 3}) {
		t.Fatalf("north ids = %v, want [1 3]", got)
	}

	// Update moving row 1 between branches must move its entry.
	old := schema.MustEncodeRow(Row{int64(1), "north", 10.0})
	moved := schema.MustEncodeRow(Row{int64(1), "south", 10.0})
	if !tbl.ApplyIndexWrite(old, true, moved, false) {
		t.Fatalf("branch move reported no index change")
	}
	if got := lookup("north"); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("north ids after move = %v, want [3]", got)
	}

	// Value-only update must not touch the index.
	richer := schema.MustEncodeRow(Row{int64(2), "south", 99.0})
	prev := schema.MustEncodeRow(Row{int64(2), "south", 20.0})
	if tbl.ApplyIndexWrite(prev, true, richer, false) {
		t.Fatalf("value-only update reported an index change")
	}

	// Delete retracts the entry.
	if !tbl.ApplyIndexWrite(moved, true, nil, true) {
		t.Fatalf("delete reported no index change")
	}
	if got := tbl.IndexLen(0); got != 2 {
		t.Fatalf("index entries after delete = %d, want 2", got)
	}
	// Tables without indexes report no change and do no work.
	plain := NewTable(MustSchema("p", []Column{{Name: "k", Type: Int64}}, "k"))
	if plain.ApplyIndexWrite(nil, false, plain.Schema().MustEncodeRow(Row{int64(1)}), false) {
		t.Fatalf("unindexed table reported an index change")
	}
}

// --- Query builder + operators over stub leaves --------------------------------

// stubFetch serves leaves from a map of alias -> rows, with a fixed schema per
// relation name.
func stubFetch(schemas map[string]*Schema, data map[string][]Row) FetchFunc {
	return func(src Source, _ []Filter) (*LeafBatch, error) {
		s, ok := schemas[src.Relation]
		if !ok {
			return nil, fmt.Errorf("no schema for %s", src.Relation)
		}
		return &LeafBatch{Schema: s, Rows: data[src.Alias], Path: "stub"}, nil
	}
}

func queryFixture() (map[string]*Schema, map[string][]Row) {
	cust := MustSchema("cust",
		[]Column{{Name: "id", Type: Int64}, {Name: "region", Type: String}}, "id")
	ord := MustSchema("ord",
		[]Column{{Name: "id", Type: Int64}, {Name: "cust_id", Type: Int64}, {Name: "total", Type: Float64}}, "id")
	schemas := map[string]*Schema{"cust": cust, "ord": ord}
	data := map[string][]Row{
		"c": {
			{int64(1), "north"},
			{int64(2), "south"},
			{int64(3), "north"},
		},
		"o": {
			{int64(10), int64(1), 5.0},
			{int64(11), int64(1), 7.0},
			{int64(12), int64(2), 11.0},
			{int64(13), int64(3), 2.0},
			{int64(14), int64(9), 100.0}, // dangling customer: drops out of the join
		},
	}
	return schemas, data
}

func TestQueryFilterJoin(t *testing.T) {
	schemas, data := queryFixture()
	res, err := NewQuery().
		From("c", "cust").
		From("o", "ord").
		Join("c", "id", "o", "cust_id").
		Where("c", "region", Eq, "north").
		Select("o.id", "o.total").
		OrderBy("o.id", false).
		Execute(stubFetch(schemas, data))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{int64(10), 5.0}, {int64(11), 7.0}, {int64(13), 2.0}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	if !reflect.DeepEqual(res.Columns, []string{"o.id", "o.total"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestQueryJoinAggregate(t *testing.T) {
	schemas, data := queryFixture()
	res, err := NewQuery().
		From("c", "cust").
		From("o", "ord").
		Join("c", "id", "o", "cust_id").
		GroupBy("c.region").
		Sum("o.total", "total").
		Count("n").
		OrderBy("c.region", false).
		Execute(stubFetch(schemas, data))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{"north", 14.0, int64(3)}, {"south", 11.0, int64(1)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestQueryOrderLimitAndAggregates(t *testing.T) {
	schemas, data := queryFixture()
	res, err := NewQuery().
		From("o", "ord").
		OrderBy("o.total", true).
		Limit(2).
		Select("o.id").
		Execute(stubFetch(schemas, data))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{int64(14)}, {int64(12)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	agg, err := NewQuery().
		From("o", "ord").
		Min("o.total", "lo").
		Max("o.total", "hi").
		Avg("o.total", "mean").
		Execute(stubFetch(schemas, data))
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != 1 {
		t.Fatalf("global aggregate rows = %v", agg.Rows)
	}
	if got := agg.Rows[0]; got.Float64(0) != 2.0 || got.Float64(1) != 100.0 || got.Float64(2) != 25.0 {
		t.Fatalf("min/max/avg = %v", got)
	}

	// Global aggregate over an empty input still yields one zero row.
	empty, err := NewQuery().
		From("o", "ord").
		Where("o", "total", Gt, 1000.0).
		Count("n").
		Execute(stubFetch(schemas, data))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 1 || empty.Rows[0].Int64(0) != 0 {
		t.Fatalf("empty aggregate = %v", empty.Rows)
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	if _, err := NewQuery().Execute(stubFetch(nil, nil)); err == nil {
		t.Fatalf("query without sources accepted")
	}
	if err := NewQuery().From("a", "r").From("a", "r").Err(); err == nil {
		t.Fatalf("duplicate alias accepted")
	}
	if err := NewQuery().From("a", "r").Join("a", "x", "a", "y").Err(); err == nil {
		t.Fatalf("self join accepted")
	}
	if err := NewQuery().From("a", "r").Limit(-1).Err(); err == nil {
		t.Fatalf("negative limit accepted")
	}
	schemas, data := queryFixture()
	if _, err := NewQuery().
		From("o", "ord").
		Where("o", "nope", Eq, 1).
		Execute(stubFetch(schemas, data)); err == nil {
		t.Fatalf("filter on unknown column accepted")
	}
	if _, err := NewQuery().
		From("o", "ord").
		GroupBy("o.total").
		Execute(stubFetch(schemas, data)); err == nil {
		t.Fatalf("GroupBy without aggregates accepted")
	}
	if _, err := NewQuery().
		From("o", "ord").
		Select("o.nope").
		Execute(stubFetch(schemas, data)); err == nil {
		t.Fatalf("projection of unknown column accepted")
	}
}

// --- Greedy planner ------------------------------------------------------------

func plannerFixture(sizes map[string]int) ([]*leaf, *Schema) {
	s := MustSchema("r", []Column{{Name: "k", Type: Int64}, {Name: "v", Type: Int64}}, "k")
	var leaves []*leaf
	for _, alias := range []string{"a", "b", "c"} {
		rows := make([]Row, sizes[alias])
		for i := range rows {
			rows[i] = Row{int64(i), int64(i % 3)}
		}
		lf, err := newLeaf(alias, s, rows, nil)
		if err != nil {
			panic(err)
		}
		leaves = append(leaves, lf)
	}
	return leaves, s
}

func TestGreedyPlannerReordersBySize(t *testing.T) {
	// Declared a(large), b(medium), c(small); chain a-b, b-c.
	leaves, _ := plannerFixture(map[string]int{"a": 100, "b": 10, "c": 2})
	joins := []JoinPred{
		{LeftAlias: "a", LeftCol: "k", RightAlias: "b", RightCol: "k"},
		{LeftAlias: "b", LeftCol: "v", RightAlias: "c", RightCol: "v"},
	}
	p, err := planJoins(leaves, joins)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy starts at the smallest leaf (c), then walks connectivity: b is
	// the only connected leaf, then a.
	if !reflect.DeepEqual(p.order, []string{"c", "b", "a"}) {
		t.Fatalf("greedy order = %v, want [c b a]", p.order)
	}
}

func TestGreedyPlannerPrefersConnectedOverSmaller(t *testing.T) {
	// b is tiny but disconnected from the a-c join; greedy must take the
	// connected c before crossing with b.
	leaves, _ := plannerFixture(map[string]int{"a": 5, "b": 1, "c": 50})
	joins := []JoinPred{{LeftAlias: "a", LeftCol: "k", RightAlias: "c", RightCol: "k"}}
	p, err := planJoins(leaves, joins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.order, []string{"b", "a", "c"}) && !reflect.DeepEqual(p.order, []string{"a", "c", "b"}) {
		t.Fatalf("order = %v: cross product must not interleave the connected pair", p.order)
	}
	// Equivalence: greedy and declaration order must produce identical result
	// sets.
	got, err := drain(p.root)
	if err != nil {
		t.Fatal(err)
	}
	np, err := buildJoins(leaves, joins)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drain(np.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("greedy produced %d rows, declaration order %d", len(got), len(want))
	}
}
