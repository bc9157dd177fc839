package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/kv"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// shopType builds the query-layer test fixture: a "Shop" reactor holding a
// customers relation and a secondarily-indexed orders relation, write
// procedures that exercise index-neutral, index-moving, inserting and
// deleting paths, and hand-written analytics procedures the declarative
// queries are differenced against.
func shopType() *core.Type {
	custs := rel.MustSchema("custs",
		[]rel.Column{
			{Name: "cust_id", Type: rel.Int64},
			{Name: "region", Type: rel.String},
		}, "cust_id")
	orders := rel.MustSchema("orders",
		[]rel.Column{
			{Name: "order_id", Type: rel.Int64},
			{Name: "cust", Type: rel.Int64},
			{Name: "branch", Type: rel.String},
			{Name: "total", Type: rel.Float64},
		}, "order_id").
		MustAddIndex("by_cust", "cust").
		MustAddIndex("by_branch", "branch")

	t := core.NewType("Shop").AddRelation(custs).AddRelation(orders)

	t.AddProcedure("add_order", func(ctx core.Context, args core.Args) (any, error) {
		return nil, ctx.Insert("orders", rel.Row{args.Int64(0), args.Int64(1), args.String(2), args.Float64(3)})
	})
	t.AddProcedure("del_order", func(ctx core.Context, args core.Args) (any, error) {
		return nil, ctx.Delete("orders", args.Int64(0))
	})
	// move_branch is the index-moving write: the row's by_branch entry must
	// migrate and concurrent branch scans must see it as a phantom.
	t.AddProcedure("move_branch", func(ctx core.Context, args core.Args) (any, error) {
		row, err := ctx.Get("orders", args.Int64(0))
		if err != nil || row == nil {
			return nil, err
		}
		return nil, ctx.Update("orders", rel.Row{row.Int64(0), row.Int64(1), args.String(1), row.Float64(3)})
	})
	// swap_totals swaps the totals of two orders: index-neutral (by_cust and
	// by_branch keys unchanged) but invariant-preserving for every
	// differential query below.
	t.AddProcedure("swap_totals", func(ctx core.Context, args core.Args) (any, error) {
		a, err := ctx.Get("orders", args.Int64(0))
		if err != nil || a == nil {
			return nil, err
		}
		b, err := ctx.Get("orders", args.Int64(1))
		if err != nil || b == nil {
			return nil, err
		}
		if err := ctx.Update("orders", rel.Row{a.Int64(0), a.Int64(1), a.String(2), b.Float64(3)}); err != nil {
			return nil, err
		}
		return nil, ctx.Update("orders", rel.Row{b.Int64(0), b.Int64(1), b.String(2), a.Float64(3)})
	})
	t.AddProcedure("insert_and_abort", func(ctx core.Context, args core.Args) (any, error) {
		if err := ctx.Insert("orders", rel.Row{args.Int64(0), args.Int64(1), args.String(2), args.Float64(3)}); err != nil {
			return nil, err
		}
		return nil, core.Abortf("deliberate failure after insert")
	})

	// hand_region_order_ids: the procedural twin of filter+join — order ids of
	// customers in the given region, ascending.
	t.AddProcedure("hand_region_order_ids", func(ctx core.Context, args core.Args) (any, error) {
		region := args.String(0)
		custRows, err := ctx.SelectAll("custs")
		if err != nil {
			return nil, err
		}
		in := make(map[int64]bool)
		for _, c := range custRows {
			if c.String(1) == region {
				in[c.Int64(0)] = true
			}
		}
		orderRows, err := ctx.SelectAll("orders")
		if err != nil {
			return nil, err
		}
		var ids []int64
		for _, o := range orderRows {
			if in[o.Int64(1)] {
				ids = append(ids, o.Int64(0))
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids, nil
	})

	// hand_region_stats: the procedural twin of join+aggregate — per-region
	// (sum of totals, order count), regions ascending.
	t.AddProcedure("hand_region_stats", func(ctx core.Context, args core.Args) (any, error) {
		custRows, err := ctx.SelectAll("custs")
		if err != nil {
			return nil, err
		}
		region := make(map[int64]string)
		for _, c := range custRows {
			region[c.Int64(0)] = c.String(1)
		}
		orderRows, err := ctx.SelectAll("orders")
		if err != nil {
			return nil, err
		}
		sums := make(map[string]float64)
		counts := make(map[string]int64)
		for _, o := range orderRows {
			r, ok := region[o.Int64(1)]
			if !ok {
				continue
			}
			sums[r] += o.Float64(3)
			counts[r]++
		}
		var regions []string
		for r := range sums {
			regions = append(regions, r)
		}
		sort.Strings(regions)
		out := make([]rel.Row, 0, len(regions))
		for _, r := range regions {
			out = append(out, rel.Row{r, sums[r], counts[r]})
		}
		return out, nil
	})

	// hand_top_totals: the procedural twin of order+limit — the k largest
	// order totals, descending.
	t.AddProcedure("hand_top_totals", func(ctx core.Context, args core.Args) (any, error) {
		k := int(args.Int64(0))
		orderRows, err := ctx.SelectAll("orders")
		if err != nil {
			return nil, err
		}
		totals := make([]float64, 0, len(orderRows))
		for _, o := range orderRows {
			totals = append(totals, o.Float64(3))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
		if len(totals) > k {
			totals = totals[:k]
		}
		return totals, nil
	})

	// query_own_write pins read-your-writes through the index path: the
	// procedure's own uncommitted insert must be visible to its indexed query.
	t.AddProcedure("query_own_write", func(ctx core.Context, args core.Args) (any, error) {
		cust := args.Int64(0)
		if err := ctx.Insert("orders", rel.Row{args.Int64(1), cust, "own", 1.0}); err != nil {
			return nil, err
		}
		res, err := ctx.Query(rel.NewQuery().
			From("o", "orders").
			Where("o", "cust", rel.Eq, cust).
			Count("n"))
		if err != nil {
			return nil, err
		}
		return res.Rows[0].Int64(0), nil
	})

	// sum_totals sums a remote reactor set procedurally, for the fan-out
	// differential.
	t.AddProcedure("query_remote_sum", func(ctx core.Context, args core.Args) (any, error) {
		res, err := ctx.Query(rel.NewQuery().
			From("o", "orders", args.Strings(0)...).
			Sum("o.total", "total"))
		if err != nil {
			return nil, err
		}
		return res.Rows[0].Float64(0), nil
	})

	return t
}

// shopSeed describes the deterministic dataset the differential tests load:
// four customers over three regions, twelve orders with distinct totals.
// Concurrent writers only swap totals between orders of the same customer and
// move orders between branches, so the derived values below are
// time-invariant: the order-id set per region, the total sum and order count
// per region, and the global multiset of totals.
type shopSeed struct {
	custs  []rel.Row
	orders []rel.Row
}

func newShopSeed() *shopSeed {
	s := &shopSeed{
		custs: []rel.Row{
			{int64(1), "north"},
			{int64(2), "south"},
			{int64(3), "north"},
			{int64(4), "east"},
		},
	}
	branches := []string{"west", "mid"}
	for i := int64(1); i <= 12; i++ {
		s.orders = append(s.orders, rel.Row{
			i,                   // order_id
			(i-1)%4 + 1,         // cust: 1..4 round robin
			branches[int(i)%2],  // branch
			float64(i*10) + 0.5, // total: distinct
		})
	}
	return s
}

func (s *shopSeed) load(t testing.TB, db *Database, reactor string) {
	t.Helper()
	for _, r := range s.custs {
		db.MustLoad(reactor, "custs", r)
	}
	for _, r := range s.orders {
		db.MustLoad(reactor, "orders", r)
	}
}

func (s *shopSeed) regionOf(cust int64) string {
	for _, c := range s.custs {
		if c.Int64(0) == cust {
			return c.String(1)
		}
	}
	return ""
}

func (s *shopSeed) regionOrderIDs(region string) []int64 {
	var ids []int64
	for _, o := range s.orders {
		if s.regionOf(o.Int64(1)) == region {
			ids = append(ids, o.Int64(0))
		}
	}
	return ids
}

func (s *shopSeed) regionStats() []rel.Row {
	sums := make(map[string]float64)
	counts := make(map[string]int64)
	for _, o := range s.orders {
		r := s.regionOf(o.Int64(1))
		sums[r] += o.Float64(3)
		counts[r]++
	}
	var regions []string
	for r := range sums {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	out := make([]rel.Row, 0, len(regions))
	for _, r := range regions {
		out = append(out, rel.Row{r, sums[r], counts[r]})
	}
	return out
}

func (s *shopSeed) topTotals(k int) []float64 {
	totals := make([]float64, 0, len(s.orders))
	for _, o := range s.orders {
		totals = append(totals, o.Float64(3))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	return totals[:k]
}

func openShop(t testing.TB, cfg Config, reactors ...string) *Database {
	t.Helper()
	def := core.NewDatabaseDef().MustAddType(shopType())
	def.MustDeclareReactors("Shop", reactors...)
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// retryConflict runs fn until it succeeds or fails with a non-conflict error,
// for reads racing the differential tests' concurrent writers.
func retryConflict(t *testing.T, fn func() (any, error)) any {
	t.Helper()
	for {
		v, err := fn()
		if err == nil {
			return v
		}
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("non-conflict error: %v", err)
		}
	}
}

// TestQueryDifferentialUnderConcurrentWriters is the differential suite:
// filter+join, join+aggregate and order+limit each run both as a declarative
// query and as a hand-written procedure while writers continuously swap
// totals within customers and move orders between branches. Both forms must
// always produce the invariant answer derived from the seed — any serialization
// hole in the operator layer, the index maintenance or the scan validation
// shows up as a mismatch.
func TestQueryDifferentialUnderConcurrentWriters(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(2)
	db := openShop(t, cfg, "shop-0")
	seed := newShopSeed()
	seed.load(t, db, "shop-0")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			branches := []string{"west", "mid", "far"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Orders i and i+4 share a customer (cust = id mod 4).
				a := int64(i%4 + 1 + 4*w)
				b := a + 4
				if _, err := db.Execute("shop-0", "swap_totals", a, b); err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("swap_totals: %v", err)
					return
				}
				if _, err := db.Execute("shop-0", "move_branch", int64(i%12+1), branches[i%3]); err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("move_branch: %v", err)
					return
				}
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	wantIDs := seed.regionOrderIDs("north")
	wantStats := seed.regionStats()
	wantTop := seed.topTotals(5)

	for iter := 0; iter < 25; iter++ {
		// Differential 1: filter + join.
		res := retryConflict(t, func() (any, error) {
			return db.Query(rel.NewQuery().
				From("c", "custs", "shop-0").
				From("o", "orders", "shop-0").
				Join("c", "cust_id", "o", "cust").
				Where("c", "region", rel.Eq, "north").
				Select("o.order_id").
				OrderBy("o.order_id", false))
		}).(*rel.Result)
		gotIDs := make([]int64, 0, len(res.Rows))
		for _, r := range res.Rows {
			gotIDs = append(gotIDs, r.Int64(0))
		}
		hand := retryConflict(t, func() (any, error) {
			return db.Execute("shop-0", "hand_region_order_ids", "north")
		}).([]int64)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) || fmt.Sprint(hand) != fmt.Sprint(wantIDs) {
			t.Fatalf("iter %d: filter+join query=%v hand=%v want=%v", iter, gotIDs, hand, wantIDs)
		}

		// Differential 2: join + aggregate.
		res = retryConflict(t, func() (any, error) {
			return db.Query(rel.NewQuery().
				From("c", "custs", "shop-0").
				From("o", "orders", "shop-0").
				Join("c", "cust_id", "o", "cust").
				GroupBy("c.region").
				Sum("o.total", "total").
				Count("n").
				OrderBy("c.region", false))
		}).(*rel.Result)
		handStats := retryConflict(t, func() (any, error) {
			return db.Execute("shop-0", "hand_region_stats")
		}).([]rel.Row)
		if fmt.Sprint(res.Rows) != fmt.Sprint(wantStats) || fmt.Sprint(handStats) != fmt.Sprint(wantStats) {
			t.Fatalf("iter %d: join+agg query=%v hand=%v want=%v", iter, res.Rows, handStats, wantStats)
		}

		// Differential 3: order + limit.
		res = retryConflict(t, func() (any, error) {
			return db.Query(rel.NewQuery().
				From("o", "orders", "shop-0").
				OrderBy("o.total", true).
				Limit(5).
				Select("o.total"))
		}).(*rel.Result)
		gotTop := make([]float64, 0, len(res.Rows))
		for _, r := range res.Rows {
			gotTop = append(gotTop, r.Float64(0))
		}
		handTop := retryConflict(t, func() (any, error) {
			return db.Execute("shop-0", "hand_top_totals", int64(5))
		}).([]float64)
		if fmt.Sprint(gotTop) != fmt.Sprint(wantTop) || fmt.Sprint(handTop) != fmt.Sprint(wantTop) {
			t.Fatalf("iter %d: order+limit query=%v hand=%v want=%v", iter, gotTop, handTop, wantTop)
		}
	}
}

// TestQueryJoinOrderAndAccessPaths pins the planner's observable decisions:
// greedy reorders the declared (orders, custs) pair smallest-first, Naive()
// keeps declaration order, both agree on results; equality filters choose the
// pk-prefix and secondary-index access paths and fall back to full scans.
func TestQueryJoinOrderAndAccessPaths(t *testing.T) {
	db := openShop(t, NewSharedEverythingWithAffinity(1), "shop-0")
	seed := newShopSeed()
	seed.load(t, db, "shop-0")

	base := func() *rel.Query {
		return rel.NewQuery().
			From("o", "orders", "shop-0"). // declared first, 12 rows
			From("c", "custs", "shop-0").  // 4 rows: greedy must seed here
			Join("c", "cust_id", "o", "cust").
			GroupBy("c.region").
			Count("n").
			OrderBy("c.region", false)
	}
	greedy, err := db.Query(base())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(greedy.JoinOrder) != "[c o]" {
		t.Fatalf("greedy join order = %v, want [c o]", greedy.JoinOrder)
	}
	naive, err := db.Query(base().Naive())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(naive.JoinOrder) != "[o c]" {
		t.Fatalf("naive join order = %v, want declaration order [o c]", naive.JoinOrder)
	}
	if fmt.Sprint(greedy.Rows) != fmt.Sprint(naive.Rows) {
		t.Fatalf("greedy and naive disagree: %v vs %v", greedy.Rows, naive.Rows)
	}

	paths := func(q *rel.Query) map[string]string {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPaths
	}
	if p := paths(rel.NewQuery().From("o", "orders", "shop-0").
		Where("o", "order_id", rel.Eq, int64(3)).Count("n")); p["o"] != "pk-prefix" {
		t.Fatalf("pk equality path = %q, want pk-prefix", p["o"])
	}
	if p := paths(rel.NewQuery().From("o", "orders", "shop-0").
		Where("o", "cust", rel.Eq, int64(2)).Count("n")); p["o"] != "index:by_cust" {
		t.Fatalf("cust equality path = %q, want index:by_cust", p["o"])
	}
	if p := paths(rel.NewQuery().From("o", "orders", "shop-0").
		Where("o", "total", rel.Gt, 50.0).Count("n")); p["o"] != "scan" {
		t.Fatalf("range-only path = %q, want scan", p["o"])
	}

	// The indexed path must return exactly the rows the filter admits.
	res, err := db.Query(rel.NewQuery().
		From("o", "orders", "shop-0").
		Where("o", "cust", rel.Eq, int64(2)).
		Select("o.order_id").
		OrderBy("o.order_id", false))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != "[[2] [6] [10]]" {
		t.Fatalf("indexed rows = %v, want orders 2 6 10", res.Rows)
	}
}

// TestQueryFanOutAcrossReactors unions one relation over three shared-nothing
// reactors — from the ad-hoc entry point and from inside a procedure on a
// fourth-party reactor — and differences the result against per-reactor sums.
func TestQueryFanOutAcrossReactors(t *testing.T) {
	cfg := NewSharedNothing(3)
	cfg.Placement = func(reactor string) int {
		var idx int
		fmt.Sscanf(reactor, "shop-%d", &idx)
		return idx % 3
	}
	db := openShop(t, cfg, "shop-0", "shop-1", "shop-2")
	want := 0.0
	id := int64(1)
	for i, r := range []string{"shop-0", "shop-1", "shop-2"} {
		for j := 0; j <= i; j++ {
			total := float64(id) * 7
			db.MustLoad(r, "orders", rel.Row{id, int64(1), "b", total})
			want += total
			id++
		}
	}
	reactors := []string{"shop-0", "shop-1", "shop-2"}

	res, err := db.Query(rel.NewQuery().
		From("o", "orders", reactors...).
		Sum("o.total", "total").
		Count("n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Float64(0); got != want {
		t.Fatalf("fan-out sum = %v, want %v", got, want)
	}
	if got := res.Rows[0].Int64(1); got != id-1 {
		t.Fatalf("fan-out count = %d, want %d", got, id-1)
	}

	// Same union initiated inside a procedure: the leaves dispatch as read
	// sub-transactions of the procedure's root.
	v, err := db.Execute("shop-0", "query_remote_sum", reactors)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != want {
		t.Fatalf("procedure fan-out sum = %v, want %v", v, want)
	}
}

// routeType is the reactor type of the query-route tests: an "items"
// relation, indexed on cust when indexed is set, and a "chain" procedure that
// calls "chain" on each reactor of args[0] in turn and, at the end of the
// chain, returns the ids of the cust-1 items on the reactors of args[1].
func routeType(name string, indexed bool) *core.Type {
	items := rel.MustSchema("items",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "cust", Type: rel.Int64}}, "id")
	if indexed {
		items = items.MustAddIndex("by_cust", "cust")
	}
	t := core.NewType(name).AddRelation(items)
	t.AddProcedure("chain", func(ctx core.Context, args core.Args) (any, error) {
		if path := args.Strings(0); len(path) > 0 {
			return ctx.CallSync(path[0], "chain", path[1:], args.Strings(1))
		}
		return ctx.Query(rel.NewQuery().
			From("o", "items", args.Strings(1)...).
			Where("o", "cust", rel.Eq, int64(1)).
			Select("o.id"))
	})
	return t
}

// openRouteDB deploys a and b (unindexed) on container 0, c on container 1
// and d on container 2. Reactor i of "abcd" holds item i+1 for cust 1 and
// item i+11 for cust 2.
func openRouteDB(t *testing.T) *Database {
	t.Helper()
	def := core.NewDatabaseDef().
		MustAddType(routeType("Indexed", true)).
		MustAddType(routeType("Plain", false))
	def.MustDeclareReactors("Indexed", "a", "c", "d")
	def.MustDeclareReactors("Plain", "b")
	cfg := NewSharedNothing(3)
	cfg.Placement = func(reactor string) int {
		return map[string]int{"a": 0, "b": 0, "c": 1, "d": 2}[reactor]
	}
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(db.Close)
	for i, r := range []string{"a", "b", "c", "d"} {
		db.MustLoad(r, "items", rel.Row{int64(i + 1), int64(1)})
		db.MustLoad(r, "items", rel.Row{int64(i + 11), int64(2)})
	}
	return db
}

// TestQueryLeavesRouteLikeCalls pins what a Context.Query source spanning
// the current reactor, a same-container sibling and two other-container
// reactors returns: the local parts first, then the remote ones, each group
// in declaration order; one access-path label per source ("mixed" when the
// parts differ); and one remote call per other-container reactor.
func TestQueryLeavesRouteLikeCalls(t *testing.T) {
	db := openRouteDB(t)
	for _, tc := range []struct {
		reactors []string
		ids      string
		path     string
	}{
		{[]string{"d", "b", "a", "c"}, "[[2] [1] [4] [3]]", "mixed"},
		{[]string{"c", "a", "d"}, "[[1] [3] [4]]", "index:by_cust"},
	} {
		v, profile, err := db.ExecuteProfiled("a", "chain", []string{}, tc.reactors)
		if err != nil {
			t.Fatalf("query over %v: %v", tc.reactors, err)
		}
		res := v.(*rel.Result)
		if got := fmt.Sprint(res.Rows); got != tc.ids {
			t.Fatalf("query over %v returned %s, want %s", tc.reactors, got, tc.ids)
		}
		if got := res.AccessPaths["o"]; got != tc.path {
			t.Fatalf("query over %v access path %q, want %q", tc.reactors, got, tc.path)
		}
		if profile.RemoteCalls != 2 {
			t.Fatalf("query over %v made %d remote calls, want 2", tc.reactors, profile.RemoteCalls)
		}
	}
}

// TestQueryNamingAncestorIsDangerous runs a query from b, inlined under a,
// which was called from c in another container. Naming an ancestor — a on
// the same-container route, c on the cross-container route — violates the
// safety condition of §2.2.4; naming b itself does not.
func TestQueryNamingAncestorIsDangerous(t *testing.T) {
	db := openRouteDB(t)
	for _, ancestor := range []string{"a", "c"} {
		_, err := db.Execute("c", "chain", []string{"a", "b"}, []string{ancestor})
		if !errors.Is(err, core.ErrDangerousStructure) {
			t.Fatalf("query naming ancestor %s: got %v, want ErrDangerousStructure", ancestor, err)
		}
	}
	v, err := db.Execute("c", "chain", []string{"a", "b"}, []string{"b", "d"})
	if err != nil {
		t.Fatalf("query naming itself and a non-ancestor: %v", err)
	}
	if got := fmt.Sprint(v.(*rel.Result).Rows); got != "[[2] [4]]" {
		t.Fatalf("query naming itself and d returned %s, want [[2] [4]]", got)
	}
}

// shopOrdersTable exposes the raw table for index-consistency assertions.
func shopOrdersTable(db *Database, reactor string) *rel.Table {
	return db.containerOf(reactor).catalog(reactor).Table("orders")
}

// assertIndexesMatchTable derives, for every secondary index, the expected
// entry set from a full primary scan and asserts the index holds exactly
// those entries — no stale entries, no missing ones.
func assertIndexesMatchTable(t *testing.T, tbl *rel.Table, label string) {
	t.Helper()
	schema := tbl.Schema()
	var keys []string
	tbl.AscendPrefix(nil, func(key []byte, _ *kv.Record) bool {
		keys = append(keys, string(key))
		return true
	})
	present := 0
	rowsByKey := make(map[string]rel.Row)
	for _, k := range keys {
		row, err := tbl.ReadRow([]byte(k))
		if err != nil {
			t.Fatalf("%s: ReadRow(%q): %v", label, k, err)
		}
		if row != nil {
			present++
			rowsByKey[k] = row
		}
	}
	for pos, ix := range schema.Indexes() {
		if got := tbl.IndexLen(pos); got != present {
			t.Fatalf("%s: index %s holds %d entries, table has %d live rows",
				label, ix.Name(), got, present)
		}
		for pk, row := range rowsByKey {
			vals := make([]any, 0, len(ix.ColumnIndices()))
			for _, ci := range ix.ColumnIndices() {
				vals = append(vals, row[ci])
			}
			prefix, err := schema.EncodeIndexPrefix(ix, vals...)
			if err != nil {
				t.Fatalf("%s: EncodeIndexPrefix: %v", label, err)
			}
			found := false
			tbl.AscendIndexPrefix(pos, []byte(prefix), func(entryPK []byte) bool {
				if string(entryPK) == pk {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%s: index %s misses live row %q", label, ix.Name(), pk)
			}
		}
	}
}

// TestQueryIndexAbortConsistency pins that aborted transactions leave no
// trace in secondary indexes: a user abort after an insert, and a botched
// delete, keep indexes exactly synchronized with the table.
func TestQueryIndexAbortConsistency(t *testing.T) {
	db := openShop(t, NewSharedEverythingWithAffinity(1), "shop-0")
	seed := newShopSeed()
	seed.load(t, db, "shop-0")
	tbl := shopOrdersTable(db, "shop-0")
	assertIndexesMatchTable(t, tbl, "after load")

	if _, err := db.Execute("shop-0", "insert_and_abort", int64(99), int64(1), "ghost", 1.0); !core.IsUserAbort(err) {
		t.Fatalf("insert_and_abort err = %v, want user abort", err)
	}
	assertIndexesMatchTable(t, tbl, "after aborted insert")
	res, err := db.Query(rel.NewQuery().
		From("o", "orders", "shop-0").
		Where("o", "branch", rel.Eq, "ghost").
		Count("n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPaths["o"] != "index:by_branch" || res.Rows[0].Int64(0) != 0 {
		t.Fatalf("ghost branch after abort: path=%s count=%d", res.AccessPaths["o"], res.Rows[0].Int64(0))
	}

	// Committed insert, move and delete keep the indexes synchronized.
	for _, step := range [][]any{
		{"add_order", int64(99), int64(1), "ghost", 2.0},
		{"move_branch", int64(99), "west"},
		{"del_order", int64(99)},
	} {
		if _, err := db.Execute("shop-0", step[0].(string), step[1:]...); err != nil {
			t.Fatalf("%s: %v", step[0], err)
		}
		assertIndexesMatchTable(t, tbl, step[0].(string))
	}
}

// TestQueryReadsOwnWrites pins read-your-writes through the index access
// path: an uncommitted insert is visible to the same transaction's indexed
// query even though its index entry installs only at commit.
func TestQueryReadsOwnWrites(t *testing.T) {
	db := openShop(t, NewSharedEverythingWithAffinity(1), "shop-0")
	v, err := db.Execute("shop-0", "query_own_write", int64(7), int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 1 {
		t.Fatalf("own insert invisible to indexed query: count = %d", v)
	}
}

// TestCrashMatrixIndexMaintenance is the index-maintenance crash matrix: a
// scripted workload of inserts, index-moving updates, deletes and a
// checkpoint runs against an indexed relation on a WAL; the matrix kills the
// machine at every storage IO boundary, recovers, and asserts that the
// secondary indexes rebuilt by checkpoint install and log replay exactly
// match the recovered primary data — then commits more index-moving work in
// the recovered incarnation and re-verifies after a second restart.
func TestCrashMatrixIndexMaintenance(t *testing.T) {
	def := core.NewDatabaseDef().MustAddType(shopType())
	def.MustDeclareReactors("Shop", "shop-0")
	mkCfg := func(storage wal.Storage) Config {
		return Config{
			Containers:            1,
			ExecutorsPerContainer: 1,
			Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage, SegmentSize: 192},
			GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond},
		}
	}
	type acks struct {
		adds  [4]bool
		move  bool
		del   bool
		ck    bool
		move2 bool
	}
	script := func(db *Database) acks {
		var a acks
		exec := func(proc string, args ...any) bool {
			_, err := db.Execute("shop-0", proc, args...)
			return err == nil
		}
		for i := range a.adds {
			a.adds[i] = exec("add_order", int64(i+1), int64(i%2+1), "north", float64(i*10))
		}
		a.move = exec("move_branch", int64(1), "south")
		a.del = exec("del_order", int64(2))
		a.ck = db.Checkpoint() == nil
		a.move2 = exec("move_branch", int64(3), "east")
		return a
	}
	verify := func(db *Database, a acks, label string) {
		t.Helper()
		tbl := shopOrdersTable(db, "shop-0")
		assertIndexesMatchTable(t, tbl, label)
		// Acknowledged effects must be present with index entries to match.
		lookup := func(branch string) map[string]bool {
			schema := tbl.Schema()
			_, ix := schema.IndexNamed("by_branch")
			prefix, err := schema.EncodeIndexPrefix(ix, branch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pos, _ := schema.IndexNamed("by_branch")
			got := make(map[string]bool)
			tbl.AscendIndexPrefix(pos, []byte(prefix), func(pk []byte) bool {
				got[string(pk)] = true
				return true
			})
			return got
		}
		// move_branch commits vacuously when its row is absent, so the ack
		// implies an indexed entry only if the insert it moves was also acked.
		if a.move2 && a.adds[2] {
			east := lookup("east")
			if len(east) != 1 {
				t.Fatalf("%s: acknowledged move to east not indexed: %v", label, east)
			}
		}
		if a.del {
			row, err := db.ReadRow("shop-0", "orders", int64(2))
			if err != nil || row != nil {
				t.Fatalf("%s: deleted order 2 resurrected: row=%v err=%v", label, row, err)
			}
		}
	}

	// Calibration.
	calCtr := &crashCounter{crashAt: -1}
	db := MustOpen(def, mkCfg(&crashStorage{inner: wal.NewMemStorage(), ctr: calCtr}))
	a := script(db)
	if !(a.adds[0] && a.adds[1] && a.adds[2] && a.adds[3] && a.move && a.del && a.ck && a.move2) {
		t.Fatalf("crash-free run did not acknowledge every op: %+v", a)
	}
	verify(db, a, "crash-free")
	db.Close()
	total := calCtr.ops.Load()
	if total < 8 {
		t.Fatalf("calibration run produced only %d IO boundaries", total)
	}

	for crashAt := int64(0); crashAt <= total; crashAt++ {
		mem := wal.NewMemStorage()
		db := MustOpen(def, mkCfg(&crashStorage{inner: mem, ctr: &crashCounter{crashAt: crashAt}}))
		a := script(db)
		db.Close()

		crashed := mem.CrashCopy()
		label := fmt.Sprintf("crashAt=%d", crashAt)
		db2 := MustOpen(def, mkCfg(crashed))
		if _, err := db2.Recover(); err != nil {
			t.Fatalf("%s: Recover: %v", label, err)
		}
		verify(db2, a, label)

		// Recovered incarnation: more index-moving work, then re-recover.
		if _, err := db2.Execute("shop-0", "add_order", int64(9), int64(1), "west", 90.0); err != nil {
			t.Fatalf("%s: post-recovery add_order: %v", label, err)
		}
		if row, err := db2.ReadRow("shop-0", "orders", int64(1)); err == nil && row != nil {
			if _, err := db2.Execute("shop-0", "move_branch", int64(1), "west"); err != nil {
				t.Fatalf("%s: post-recovery move_branch: %v", label, err)
			}
		}
		verify(db2, a, label+" (post-recovery writes)")
		db2.Close()

		db3 := MustOpen(def, mkCfg(crashed))
		if _, err := db3.Recover(); err != nil {
			t.Fatalf("%s: second Recover: %v", label, err)
		}
		assertIndexesMatchTable(t, shopOrdersTable(db3, "shop-0"), label+" (restart 2)")
		if row, err := db3.ReadRow("shop-0", "orders", int64(9)); err != nil || row == nil {
			t.Fatalf("%s: post-recovery insert lost: row=%v err=%v", label, row, err)
		}
		db3.Close()
	}
}

// TestAdaptiveTargetFloorsAtGroupCommitWindow pins the coordination between
// the adaptive-depth controller and group commit: the wait target the AIMD
// loop steers toward is floored at the group-commit window, since
// acknowledgement latency cannot fall below the flush cadence.
func TestAdaptiveTargetFloorsAtGroupCommitWindow(t *testing.T) {
	mk := func(gcEnabled bool, window time.Duration) *Database {
		cfg := NewSharedEverythingWithAffinity(1)
		cfg.AdaptiveDepth = AdaptiveDepthConfig{Enabled: true, TargetP99: 300 * time.Microsecond, Floor: 2, Interval: time.Hour}
		cfg.GroupCommit = GroupCommitConfig{Enabled: gcEnabled, Window: window, MaxBatch: 8}
		return openShop(t, cfg, "shop-0")
	}
	if got := mk(false, 5*time.Millisecond).adaptiveTarget(); got != 300*time.Microsecond {
		t.Fatalf("target without group commit = %v, want 300µs", got)
	}
	if got := mk(true, 5*time.Millisecond).adaptiveTarget(); got != 5*time.Millisecond {
		t.Fatalf("target with 5ms window = %v, want the window", got)
	}
	if got := mk(true, 100*time.Microsecond).adaptiveTarget(); got != 300*time.Microsecond {
		t.Fatalf("target with sub-target window = %v, want TargetP99", got)
	}
}

// TestAdaptiveDepthHoldsAtGroupCommitWindow is the behavioral half: the same
// overload that walks the depth down in TestAdaptiveDepthShrinksUnderOverload
// must NOT shrink it when a wide group-commit window raises the wait target —
// queue waits below the flush cadence are not congestion.
func TestAdaptiveDepthHoldsAtGroupCommitWindow(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(1)
	cfg.QueueDepth = 64
	cfg.Costs.Processing = 500 * time.Microsecond
	cfg.AdaptiveDepth = AdaptiveDepthConfig{
		Enabled:   true,
		TargetP99: 300 * time.Microsecond,
		Floor:     2,
		Interval:  2 * time.Millisecond,
	}
	cfg.GroupCommit = GroupCommitConfig{Enabled: true, Window: time.Second, MaxBatch: 64}
	db := openAccounts(t, 16, 100, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := accountNames(16)[c]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Execute(name, "credit", 1.0); err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("credit: %v", err)
					return
				}
			}
		}(c)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := db.QueueStats()[0].EffectiveDepth; got != 64 {
			close(stop)
			wg.Wait()
			t.Fatalf("effective depth shrank to %d despite wait target floored at the group-commit window", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
