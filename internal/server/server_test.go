package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// kvType is the wire-test workload: a keyed store with a read procedure that
// returns a payload (so execute results cross the wire), a write procedure,
// a gated procedure for overload tests, an echo whose result is as large as
// its arguments, a procedure returning a byte string of any size asked, and
// one returning a list nested as deep as asked.
func kvType(gate chan struct{}) *core.Type {
	schema := rel.MustSchema("store",
		[]rel.Column{{Name: "k", Type: rel.Int64}, {Name: "v", Type: rel.Int64}}, "k")
	t := core.NewType("KV").AddRelation(schema)
	t.AddProcedure("put", func(ctx core.Context, args core.Args) (any, error) {
		k, v := args.Int64(0), args.Int64(1)
		row, err := ctx.Get("store", k)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, ctx.Insert("store", rel.Row{k, v})
		}
		return nil, ctx.Update("store", rel.Row{k, v})
	})
	t.AddProcedure("get", func(ctx core.Context, args core.Args) (any, error) {
		row, err := ctx.Get("store", args.Int64(0))
		if err != nil || row == nil {
			return nil, err
		}
		return row.Int64(1), nil
	})
	t.AddProcedure("boom", func(ctx core.Context, args core.Args) (any, error) {
		return nil, core.Abortf("no key %d", args.Int64(0))
	})
	t.AddProcedure("echo", func(ctx core.Context, args core.Args) (any, error) {
		return []any(args), nil
	})
	t.AddProcedure("big", func(ctx core.Context, args core.Args) (any, error) {
		return make([]byte, args.Int64(0)), nil
	})
	t.AddProcedure("nest", func(ctx core.Context, args core.Args) (any, error) {
		return nestedList(int(args.Int64(0))), nil
	})
	t.AddProcedure("wait", func(ctx core.Context, args core.Args) (any, error) {
		if gate != nil {
			<-gate
		}
		return nil, nil
	})
	return t
}

// nestedList returns one-element lists nested levels deep around a nil.
func nestedList(levels int) any {
	var v any
	for ; levels > 0; levels-- {
		v = []any{v}
	}
	return v
}

func kvDef(gate chan struct{}, reactors ...string) *core.DatabaseDef {
	def := core.NewDatabaseDef().MustAddType(kvType(gate))
	def.MustDeclareReactors("KV", reactors...)
	return def
}

func walCfg() engine.Config {
	return engine.Config{
		Containers:            1,
		ExecutorsPerContainer: 2,
		GroupCommit:           engine.GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 500 * time.Microsecond},
		Durability:            engine.DurabilityConfig{Mode: engine.DurabilityWAL, Storage: wal.NewMemStorage()},
	}
}

// startPrimary opens a primary on an ephemeral port and returns its address.
func startPrimary(t *testing.T, db *engine.Database, opts Options) (*Server, string) {
	t.Helper()
	s := NewPrimary(db, opts)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start primary server: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

func startReplica(t *testing.T, rep *engine.Replica, opts Options) (*Server, string) {
	t.Helper()
	s := NewReplica(rep, opts)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start replica server: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

func dial(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// --- codec unit tests --------------------------------------------------------

func TestFrameCorruptionDetected(t *testing.T) {
	clean, err := endFrame(append(beginFrame(nil, frameExecute), "payload"...), 0)
	if err != nil {
		t.Fatalf("endFrame: %v", err)
	}
	readFrame := func(b []byte) (uint8, []byte, error) { return newFrameReader(bytes.NewReader(b)).next() }

	typ, body, err := readFrame(clean)
	if err != nil || typ != frameExecute || string(body) != "payload" {
		t.Fatalf("clean frame = (%d, %q, %v), want (execute, payload, nil)", typ, body, err)
	}

	// Flip one payload byte: the CRC must catch it.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 0x40
	if _, _, err := readFrame(corrupt); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("corrupted payload error = %v, want errCorruptFrame", err)
	}

	// Corrupt the length prefix to an absurd value: refused before allocating.
	huge := append([]byte(nil), clean...)
	huge[3] = 0xff
	if _, _, err := readFrame(huge); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("huge length error = %v, want errCorruptFrame", err)
	}

	// A stream that ends inside a frame is an error, not a clean end.
	if _, _, err := readFrame(clean[:len(clean)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := readFrame(nil); err != io.EOF {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	values := []any{
		nil,
		int64(-42),
		7,
		3.25,
		"hello",
		true,
		false,
		[]byte{0, 1, 2},
		[]string{"a", "b"},
		rel.Row{int64(1), "x", 2.5},
		[]rel.Row{{int64(1)}, {int64(2), false}},
		[]any{int64(9), "mix", nil},
	}
	for _, v := range values {
		buf, err := appendValue(nil, v, 0)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		r := &reader{buf: buf}
		got := r.value()
		if r.err != nil {
			t.Fatalf("decode %#v: %v", v, r.err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %#v = %#v", v, got)
		}
	}
	if _, err := appendValue(nil, struct{}{}, 0); err == nil {
		t.Fatalf("encoding an unsupported type should fail")
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	q := rel.NewQuery().
		From("o", "orders", "shop-1", "shop-2").
		From("c", "custs", "shop-1").
		Where("o", "branch", rel.Eq, "north").
		Where("o", "total", rel.Ge, 10.5).
		Join("o", "cust", "c", "cust_id").
		GroupBy("o.branch").
		Sum("o.total", "sum_total").
		Count("n").
		OrderBy("sum_total", true).
		Limit(3)
	buf, err := appendQuery(nil, q)
	if err != nil {
		t.Fatalf("appendQuery: %v", err)
	}
	r := &reader{buf: buf}
	got := r.query()
	if r.err != nil {
		t.Fatalf("decode query: %v", r.err)
	}
	if !reflect.DeepEqual(got.Sources(), q.Sources()) {
		t.Fatalf("sources = %#v, want %#v", got.Sources(), q.Sources())
	}
	if !reflect.DeepEqual(got.AllFilters(), q.AllFilters()) {
		t.Fatalf("filters = %#v, want %#v", got.AllFilters(), q.AllFilters())
	}
	if !reflect.DeepEqual(got.Joins(), q.Joins()) {
		t.Fatalf("joins = %#v, want %#v", got.Joins(), q.Joins())
	}
	if !reflect.DeepEqual(got.GroupCols(), q.GroupCols()) {
		t.Fatalf("group cols = %#v, want %#v", got.GroupCols(), q.GroupCols())
	}
	if !reflect.DeepEqual(got.Aggregates(), q.Aggregates()) {
		t.Fatalf("aggregates = %#v, want %#v", got.Aggregates(), q.Aggregates())
	}
	if !reflect.DeepEqual(got.Ordering(), q.Ordering()) {
		t.Fatalf("ordering = %#v, want %#v", got.Ordering(), q.Ordering())
	}
	if got.LimitCount() != q.LimitCount() || got.IsNaive() != q.IsNaive() {
		t.Fatalf("limit/naive = %d/%v, want %d/%v",
			got.LimitCount(), got.IsNaive(), q.LimitCount(), q.IsNaive())
	}

	// A query carrying a builder error must be refused at encode time.
	bad := rel.NewQuery().From("a", "t").From("a", "t") // duplicate alias
	if _, err := appendQuery(nil, bad); err == nil {
		t.Fatalf("encoding a broken query should fail")
	}
}

func TestResultMsgRoundTrip(t *testing.T) {
	hints := LoadHints{
		Role:       RoleReplica,
		Degraded:   true,
		LagRecords: 17,
		Epoch:      3,
		Err:        "engine: replica: mirror write: disk on fire",
		Executors: []ExecutorHint{
			{Container: 0, Executor: 1, Depth: 3, InFlight: 2, EffectiveDepth: 8, WaitP99Micros: 950},
		},
	}
	m := resultMsg{
		ID:     42,
		Status: statusOK,
		Kind:   payloadQuery,
		Result: &rel.Result{
			Columns:     []string{"k", "v"},
			Rows:        []rel.Row{{int64(1), "a"}, {int64(2), "b"}},
			JoinOrder:   []string{"s"},
			AccessPaths: map[string]string{"s": "scan"},
		},
	}
	frame, err := m.appendFrame(nil, appendHints(nil, &hints))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, gotHints, err := decodeResultFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", got, m)
	}
	if !reflect.DeepEqual(gotHints, hints) {
		t.Fatalf("hints round trip mismatch:\n got  %#v\n want %#v", gotHints, hints)
	}
}

// decodeResultFrame reads one result frame the way the client's read loop
// does: frame, id, then the rest.
func decodeResultFrame(frame []byte) (resultMsg, LoadHints, error) {
	var m resultMsg
	var h LoadHints
	typ, body, err := newFrameReader(bytes.NewReader(frame)).next()
	if err != nil {
		return m, h, err
	}
	if typ != frameResult {
		return m, h, errCorruptFrame
	}
	return decodeResultBody(body)
}

// decodeResultBody decodes a result frame's body: the id, then the rest.
func decodeResultBody(body []byte) (m resultMsg, h LoadHints, err error) {
	r := reader{buf: body}
	m.ID = r.uvarint()
	r.result(&m, &h)
	return m, h, r.err
}

// --- end-to-end tests --------------------------------------------------------

// TestWireMatchesInProcess is the differential check: the same operation
// sequence driven through the wire protocol and through Database.Execute/Query
// on an identically configured in-process instance must produce identical
// results — values, query results, and error text alike.
func TestWireMatchesInProcess(t *testing.T) {
	reactors := []string{"kv0", "kv1", "kv2"}
	wireDB := engine.MustOpen(kvDef(nil, reactors...), walCfg())
	defer wireDB.Close()
	localDB := engine.MustOpen(kvDef(nil, reactors...), walCfg())
	defer localDB.Close()

	_, addr := startPrimary(t, wireDB, Options{})
	conn := dial(t, addr)
	if conn.Role() != RolePrimary {
		t.Fatalf("hello role = %v, want primary", conn.Role())
	}

	type op struct {
		reactor, proc string
		args          []any
	}
	var ops []op
	for i := 0; i < 30; i++ {
		r := reactors[i%len(reactors)]
		ops = append(ops, op{r, "put", []any{int64(i % 7), int64(100 + i)}})
		ops = append(ops, op{r, "get", []any{int64(i % 7)}})
	}
	ops = append(ops,
		op{"kv1", "get", []any{int64(999)}},         // miss: nil result
		op{"kv2", "boom", []any{int64(5)}},          // application abort
		op{"kv0", "nosuch", []any{}},                // unknown procedure
		op{"nosuchreactor", "get", []any{int64(0)}}, // unknown reactor
	)

	for i, o := range ops {
		wv, werr := conn.Execute(o.reactor, o.proc, o.args...)
		lv, lerr := localDB.Execute(o.reactor, o.proc, o.args...)
		if (werr == nil) != (lerr == nil) {
			t.Fatalf("op %d %s/%s: wire err %v, local err %v", i, o.reactor, o.proc, werr, lerr)
		}
		if werr != nil && werr.Error() != lerr.Error() {
			t.Fatalf("op %d %s/%s: wire err %q, local err %q", i, o.reactor, o.proc, werr, lerr)
		}
		if !reflect.DeepEqual(wv, lv) {
			t.Fatalf("op %d %s/%s: wire value %#v, local value %#v", i, o.reactor, o.proc, wv, lv)
		}
	}

	q := func() *rel.Query {
		return rel.NewQuery().
			From("s", "store", reactors...).
			Where("s", "v", rel.Ge, int64(100)).
			Sum("s.v", "total").
			Count("n")
	}
	wres, werr := conn.Query(q())
	lres, lerr := localDB.Query(q())
	if werr != nil || lerr != nil {
		t.Fatalf("query: wire err %v, local err %v", werr, lerr)
	}
	if !reflect.DeepEqual(wres, lres) {
		t.Fatalf("query result mismatch:\n wire  %#v\n local %#v", wres, lres)
	}

	// Row-returning query: rows, planner diagnostics and all.
	q2 := func() *rel.Query {
		return rel.NewQuery().
			From("s", "store", reactors...).
			OrderBy("s.v", false).
			Limit(5)
	}
	wres2, werr := conn.Query(q2())
	lres2, lerr := localDB.Query(q2())
	if werr != nil || lerr != nil {
		t.Fatalf("query2: wire err %v, local err %v", werr, lerr)
	}
	if !reflect.DeepEqual(wres2, lres2) {
		t.Fatalf("query2 result mismatch:\n wire  %#v\n local %#v", wres2, lres2)
	}
}

// TestWireOverloadedIsRetryableStatus fills a fail-fast engine's only
// executor and floods it through one pipelined connection: rejections must
// come back as the Overloaded status — reconstructed as the exact
// engine.ErrOverloaded sentinel — and the connection must survive to serve
// requests afterwards.
func TestWireOverloadedIsRetryableStatus(t *testing.T) {
	gate := make(chan struct{})
	cfg := engine.Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		QueueDepth:            2,
		Admission:             engine.AdmissionFail,
	}
	db := engine.MustOpen(kvDef(gate, "kv0"), cfg)
	defer db.Close()

	_, addr := startPrimary(t, db, Options{MaxInFlight: 64})
	conn := dial(t, addr)

	const flood = 24
	errs := make(chan error, flood)
	for i := 0; i < flood; i++ {
		go func() {
			_, err := conn.Execute("kv0", "wait")
			errs <- err
		}()
	}

	var overloaded, completed int
	timeout := time.After(10 * time.Second)
	for i := 0; i < flood; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				completed++
			case errors.Is(err, engine.ErrOverloaded):
				if err.Error() != engine.ErrOverloaded.Error() {
					t.Fatalf("overloaded error text %q, want the sentinel's %q", err, engine.ErrOverloaded)
				}
				overloaded++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
			if gate != nil && overloaded > 0 {
				// Rejections observed while the gate still holds the
				// executor: release everything and drain.
				close(gate)
				gate = nil
			}
		case <-timeout:
			t.Fatalf("flood did not resolve: %d completed, %d overloaded", completed, overloaded)
		}
	}
	if gate != nil {
		close(gate)
	}
	if overloaded == 0 {
		t.Fatalf("no request came back Overloaded (%d completed)", completed)
	}

	// The session survived the rejections: a fresh request still works.
	if _, err := conn.Execute("kv0", "put", int64(1), int64(2)); err != nil {
		t.Fatalf("post-flood execute: %v", err)
	}
	v, err := conn.Execute("kv0", "get", int64(1))
	if err != nil || v != int64(2) {
		t.Fatalf("post-flood get = %v, %v; want 2", v, err)
	}
}

// laggedFixture opens a WAL primary with a caught-up-then-frozen replica: the
// replica bootstraps from a checkpoint and then never polls, so every
// subsequent primary commit widens its lag deterministically.
func laggedFixture(t *testing.T) (*engine.Database, *engine.Replica) {
	t.Helper()
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	t.Cleanup(db.Close)
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(i)); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rep, err := engine.OpenReplica(db, engine.ReplicaOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(rep.Close)
	// Widen the lag: these commits are durable on the primary but the frozen
	// replica never applies them.
	for i := 0; i < 5; i++ {
		if _, err := db.Execute("kv0", "put", int64(100+i), int64(100+i)); err != nil {
			t.Fatalf("lag put %d: %v", i, err)
		}
	}
	return db, rep
}

// TestReplicaFreshnessBoundAndWriteRejection drives a frozen replica over the
// wire: an unbounded read serves the stale snapshot, a bounded read comes
// back Stale, and a write comes back as engine.ErrReplicaRead.
func TestReplicaFreshnessBoundAndWriteRejection(t *testing.T) {
	_, rep := laggedFixture(t)
	_, addr := startReplica(t, rep, Options{HintRefresh: time.Nanosecond})
	conn := dial(t, addr)
	if conn.Role() != RoleReplica {
		t.Fatalf("hello role = %v, want replica", conn.Role())
	}

	// Unbounded read: the checkpoint-era snapshot, not the primary's state.
	if v, err := conn.ExecuteFresh(0, "kv0", "get", int64(100)); err != nil || v != nil {
		t.Fatalf("unbounded stale read = %v, %v; want nil, nil", v, err)
	}
	// Bounded read: the replica is more than 1 record behind → Stale.
	if _, err := conn.ExecuteFresh(1, "kv0", "get", int64(100)); !errors.Is(err, ErrStale) {
		t.Fatalf("bounded read error = %v, want ErrStale", err)
	}
	// Writes are refused with the engine's sentinel.
	if _, err := conn.Execute("kv0", "put", int64(7), int64(7)); !errors.Is(err, engine.ErrReplicaRead) {
		t.Fatalf("replica write error = %v, want ErrReplicaRead", err)
	}
	// Hints carry the lag so a router can route around this replica.
	h, err := conn.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if h.Role != RoleReplica || h.LagRecords == 0 {
		t.Fatalf("hints = %+v, want replica role with nonzero lag", h)
	}
}

// TestFreshnessBoundIgnoresHintCache pins the freshness bound to the LIVE
// replica lag: with the hint cache frozen at lag=0 (HintRefresh so large it
// never expires), a write landing on the primary must make an immediately
// following bounded read answer Stale. An earlier version enforced the bound
// from the cached hint, so any bounded read within one refresh window of a
// write could serve data arbitrarily beyond the bound.
func TestFreshnessBoundIgnoresHintCache(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	t.Cleanup(db.Close)
	if _, err := db.Execute("kv0", "put", int64(1), int64(1)); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rep, err := engine.OpenReplica(db, engine.ReplicaOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(rep.Close)
	if err := rep.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatalf("catch up: %v", err)
	}

	_, addr := startReplica(t, rep, Options{HintRefresh: time.Hour})
	conn := dial(t, addr)
	// Prime the hint cache while the replica is fully caught up: lag 0.
	h, err := conn.Stats()
	if err != nil || h.LagRecords != 0 {
		t.Fatalf("primed hints = %+v, %v; want zero lag", h, err)
	}
	// The replica (frozen poll) will not apply these; its true lag is now
	// nonzero while the served hint still says 0 for the next hour.
	for i := 0; i < 5; i++ {
		if _, err := db.Execute("kv0", "put", int64(10+i), int64(10+i)); err != nil {
			t.Fatalf("lag put %d: %v", i, err)
		}
	}
	if _, err := conn.ExecuteFresh(1, "kv0", "get", int64(10)); !errors.Is(err, ErrStale) {
		t.Fatalf("bounded read within hint window = %v, want ErrStale", err)
	}
	// The cached hint itself is allowed to stay stale — it is advisory.
	if h := conn.Hints(); h.LagRecords != 0 {
		t.Fatalf("cached hint lag = %d, want the stale 0", h.LagRecords)
	}
}

// TestRouterRoutesAroundLaggingReplica runs both policies against a primary,
// a fresh replica and a frozen replica: writes land on the primary, and every
// bounded read returns the freshest value no matter which endpoint was tried
// first — round-robin by paying the Stale-retry round trip, aware by skipping
// the lagging replica outright.
func TestRouterRoutesAroundLaggingReplica(t *testing.T) {
	db, frozen := laggedFixture(t)
	fresh, err := engine.OpenReplica(db, engine.ReplicaOptions{PollInterval: 100 * time.Microsecond})
	if err != nil {
		t.Fatalf("open fresh replica: %v", err)
	}
	t.Cleanup(fresh.Close)

	opts := Options{HintRefresh: time.Nanosecond}
	_, pAddr := startPrimary(t, db, opts)
	_, fAddr := startReplica(t, frozen, opts)
	_, rAddr := startReplica(t, fresh, opts)
	endpoints := []string{pAddr, fAddr, rAddr}

	for _, policy := range []Policy{PolicyRoundRobin, PolicyAware} {
		t.Run(policy.String(), func(t *testing.T) {
			router, err := NewRouter(endpoints, RouterOptions{Policy: policy, MaxLagRecords: 1})
			if err != nil {
				t.Fatalf("new router: %v", err)
			}
			defer router.Close()
			if len(router.Replicas()) != 2 {
				t.Fatalf("router found %d replicas, want 2", len(router.Replicas()))
			}

			// A write: must reach the primary regardless of policy.
			key := int64(500)
			if _, err := router.Execute("kv0", "put", key, int64(1234)); err != nil {
				t.Fatalf("router write: %v", err)
			}
			if err := fresh.WaitCaughtUp(10 * time.Second); err != nil {
				t.Fatalf("fresh replica catch-up: %v", err)
			}

			// Bounded reads across many attempts: the frozen replica is in the
			// rotation but must never leak its stale snapshot.
			for i := 0; i < 12; i++ {
				v, err := router.ExecuteRead("kv0", "get", key)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if v != int64(1234) {
					t.Fatalf("read %d = %v, want 1234 (stale replica leaked through)", i, v)
				}
			}

			// The declarative path routes the same way.
			res, err := router.Query(rel.NewQuery().
				From("s", "store", "kv0").
				Where("s", "k", rel.Eq, key).
				Count("n"))
			if err != nil {
				t.Fatalf("router query: %v", err)
			}
			if got := res.Rows[0].Int64(0); got != 1 {
				t.Fatalf("router query count = %d, want 1", got)
			}
		})
	}
}
