package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/randutil"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// This file extends the black-box history checker across a failover event:
// a concurrent multi-container banking workload runs against "the cluster"
// (whatever the supervisor says the primary is), the primary's storage is
// killed mid-workload, the supervisor detects it by heartbeat and promotes
// the semi-sync replica, and the workload continues on the new primary. The
// checker sees only operation outcomes and verifies:
//
//   - every committed audit — on the replica before the failover, on the
//     promoted primary after — observes the conserved total (snapshot
//     consistency: no torn 2PC group, no mid-apply read);
//   - the committed-op count observed by audits never decreases across the
//     entire sequence, INCLUDING the failover boundary: a committed read
//     never un-happens. Audits run on the replica that gets promoted, so
//     everything an audit observed was durably mirrored below it;
//   - no acknowledged transfer is lost: every acked op's marker row is in
//     the final state;
//   - the final state is exactly explainable: balances equal the initial
//     state plus the effects of precisely the ops whose markers survived
//     (acked ops, plus possibly ops that were in flight at the kill — an
//     unacknowledged outcome is ambiguous by definition, but it is all or
//     nothing, and the marker says which).

// failoverBankType is the banking reactor with per-op marker rows: xferTagged
// transfers and records a unique op id atomically with the debit, so the
// checker can reconstruct, from the surviving markers, exactly which
// transfers' effects the final state must contain.
func failoverBankType() *core.Type {
	bal := rel.MustSchema("bal",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Int64}}, "id")
	oplog := rel.MustSchema("oplog",
		[]rel.Column{{Name: "op", Type: rel.Int64}}, "op")
	t := core.NewType("Account").AddRelation(bal).AddRelation(oplog)
	read := func(ctx core.Context) (int64, error) {
		row, err := ctx.Get("bal", int64(0))
		if err != nil {
			return 0, err
		}
		if row == nil {
			return 0, core.Abortf("account %s not loaded", ctx.Reactor())
		}
		return row.Int64(1), nil
	}
	t.AddProcedure("credit", func(ctx core.Context, args core.Args) (any, error) {
		cur, err := read(ctx)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Update("bal", rel.Row{int64(0), cur + args.Int64(0)})
	})
	t.AddProcedure("xferTagged", func(ctx core.Context, args core.Args) (any, error) {
		dst, amt, op := args.String(0), args.Int64(1), args.Int64(2)
		cur, err := read(ctx)
		if err != nil {
			return nil, err
		}
		if err := ctx.Update("bal", rel.Row{int64(0), cur - amt}); err != nil {
			return nil, err
		}
		if err := ctx.Insert("oplog", rel.Row{op}); err != nil {
			return nil, err
		}
		fut, err := ctx.Call(dst, "credit", amt)
		if err != nil {
			return nil, err
		}
		_, err = fut.Get()
		return nil, err
	})
	// snap returns this account's balance and committed-op marker count in
	// one serializable read.
	t.AddProcedure("snap", func(ctx core.Context, _ core.Args) (any, error) {
		cur, err := read(ctx)
		if err != nil {
			return nil, err
		}
		markers := int64(0)
		if err := ctx.Scan("oplog", func(rel.Row) bool {
			markers++
			return true
		}); err != nil {
			return nil, err
		}
		return []int64{cur, markers}, nil
	})
	// audit sums balances and markers across every account in one
	// transaction spanning all containers.
	t.AddProcedure("audit", func(ctx core.Context, args core.Args) (any, error) {
		accounts := args.Strings(0)
		var total, markers int64
		for _, acct := range accounts {
			var v any
			var err error
			if acct == ctx.Reactor() {
				v, err = func() (any, error) {
					cur, err := read(ctx)
					if err != nil {
						return nil, err
					}
					m := int64(0)
					if err := ctx.Scan("oplog", func(rel.Row) bool { m++; return true }); err != nil {
						return nil, err
					}
					return []int64{cur, m}, nil
				}()
			} else {
				fut, callErr := ctx.Call(acct, "snap", nil)
				if callErr != nil {
					return nil, callErr
				}
				v, err = fut.Get()
			}
			if err != nil {
				return nil, err
			}
			pair := v.([]int64)
			total += pair[0]
			markers += pair[1]
		}
		return []int64{total, markers}, nil
	})
	// opset returns this account's surviving op ids.
	t.AddProcedure("opset", func(ctx core.Context, _ core.Args) (any, error) {
		var ops []int64
		if err := ctx.Scan("oplog", func(row rel.Row) bool {
			ops = append(ops, row.Int64(0))
			return true
		}); err != nil {
			return nil, err
		}
		return ops, nil
	})
	return t
}

type failoverOp struct {
	src, dst int
	amt      int64
	id       int64
	acked    bool
	epoch    uint64 // primary epoch the op was acknowledged under
}

func TestCrashFailoverHistoryBlackBox(t *testing.T) {
	const (
		accounts   = 8
		initial    = int64(1000)
		workers    = 4
		opsPer     = 40
		containers = 2
	)
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct-%d", i)
	}
	def := core.NewDatabaseDef().MustAddType(failoverBankType())
	def.MustDeclareReactors("Account", names...)

	memA := wal.NewMemStorage()
	cfg := Config{
		Containers:            containers,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 8, Window: 200 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: memA},
		Placement: func(reactor string) int {
			var id int
			fmt.Sscanf(reactor, "acct-%d", &id)
			return id % containers
		},
	}
	db := MustOpen(def, cfg)
	for i := 0; i < accounts; i++ {
		db.MustLoad(names[i], "bal", rel.Row{int64(0), initial})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rep, err := OpenReplica(db, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	// A longer miss budget than the matrix uses: the window between the kill
	// signal and the replica being closed for promotion is what keeps the
	// auditor's last replica read race-free (see the auditor loop).
	sup := NewSupervisor(db, []*Replica{rep}, SupervisorOptions{Interval: 5 * time.Millisecond, Misses: 3})
	sup.Start()
	defer sup.Stop()

	// The killer: once a third of the workload landed, the primary's storage
	// dies mid-flight.
	var opsDone atomic.Int64
	var killed atomic.Bool
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for opsDone.Load() < workers*opsPer/3 {
			time.Sleep(time.Millisecond)
		}
		killed.Store(true)
		memA.FailWrites(errors.New("injected: primary storage died"))
	}()

	histories := make([][]failoverOp, workers)
	var transfersDone atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randutil.New(int64(w) + 301)
			for i := 0; i < opsPer; i++ {
				src := randutil.UniformInt(rng, 0, accounts-1)
				dst := randutil.UniformInt(rng, 0, accounts-2)
				if dst >= src {
					dst++
				}
				amt := int64(randutil.UniformInt(rng, 1, 10))
				id := int64(w*1000 + i)
				p := sup.Primary()
				_, err := p.Execute(names[src], "xferTagged", names[dst], amt, id)
				opsDone.Add(1)
				op := failoverOp{src: src, dst: dst, amt: amt, id: id, acked: err == nil, epoch: p.Epoch()}
				histories[w] = append(histories[w], op)
				// A failed op is NEVER retried: its outcome is ambiguous (it
				// may have become durable before the kill), and re-running it
				// would double-apply. The marker decides at the end. Pace a
				// little while the failover is in flight.
				if err != nil && !errors.Is(err, ErrConflict) {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}

	// The auditor. Phase one reads the semi-sync replica — the node that will
	// be promoted, so everything an audit observes is durably mirrored below
	// it. The phase ends when the kill fires, BEFORE the supervisor's miss
	// budget can close the replica for promotion. Phase two waits for the
	// failover and audits the promoted primary.
	var audits [][]int64
	auditorDone := make(chan struct{})
	go func() {
		defer close(auditorDone)
		audit := func(exec func() (any, error)) bool {
			res, err := exec()
			if err != nil {
				return !errors.Is(err, ErrConflict) && transfersDone.Load()
			}
			pair := res.([]int64)
			audits = append(audits, pair)
			return false
		}
		for !killed.Load() && !transfersDone.Load() {
			if audit(func() (any, error) { return rep.Database().Execute(names[0], "audit", names) }) {
				return
			}
		}
		for sup.Stats().Failovers == 0 && !transfersDone.Load() {
			time.Sleep(time.Millisecond)
		}
		for !transfersDone.Load() {
			audit(func() (any, error) { return sup.Primary().Execute(names[0], "audit", names) })
		}
	}()

	wg.Wait()
	transfersDone.Store(true)
	<-killerDone
	<-auditorDone
	if t.Failed() {
		return
	}
	stats := sup.Stats()
	if stats.Failovers != 1 {
		t.Fatalf("supervisor drove %d failovers, want exactly 1 (err: %s)", stats.Failovers, stats.Err)
	}
	promoted := sup.Primary()
	if promoted == db || promoted.Epoch() != 1 {
		t.Fatalf("no promoted primary (epoch %d)", promoted.Epoch())
	}
	if !db.Fenced() {
		t.Fatal("deposed primary not fenced")
	}

	// Quiescent final audit on the new primary joins the history.
	res, err := promoted.Execute(names[0], "audit", names)
	if err != nil {
		t.Fatalf("final audit: %v", err)
	}
	audits = append(audits, res.([]int64))

	// Check 1: conservation in every committed audit, before and after the
	// failover.
	want := initial * accounts
	for i, a := range audits {
		if a[0] != want {
			t.Fatalf("audit %d observed total %d, want %d", i, a[0], want)
		}
	}
	// Check 2: committed reads never un-happen — the observed committed-op
	// count is monotone across the whole sequence, failover included.
	for i := 1; i < len(audits); i++ {
		if audits[i][1] < audits[i-1][1] {
			t.Fatalf("audit %d observed %d committed ops after audit %d observed %d — a committed read un-happened across the failover",
				i, audits[i][1], i-1, audits[i-1][1])
		}
	}

	// Collect the surviving marker set from the final state.
	byID := make(map[int64]failoverOp)
	ackedTotal, ackedNew := 0, 0
	for _, h := range histories {
		for _, op := range h {
			byID[op.id] = op
			if op.acked {
				ackedTotal++
				if op.epoch > 0 {
					ackedNew++
				}
			}
		}
	}
	present := make(map[int64]bool)
	for i := 0; i < accounts; i++ {
		res, err := promoted.Execute(names[i], "opset")
		if err != nil {
			t.Fatalf("opset %s: %v", names[i], err)
		}
		for _, id := range res.([]int64) {
			if _, known := byID[id]; !known {
				t.Fatalf("marker %d from nowhere", id)
			}
			if present[id] {
				t.Fatalf("marker %d present twice", id)
			}
			present[id] = true
		}
	}
	// Check 3: no acknowledged commit lost.
	for _, h := range histories {
		for _, op := range h {
			if op.acked && !present[op.id] {
				t.Fatalf("acknowledged op %d (epoch %d) lost across the failover", op.id, op.epoch)
			}
		}
	}
	// Check 4: the final state is exactly the surviving ops' outcome.
	expected := make([]int64, accounts)
	for i := range expected {
		expected[i] = initial
	}
	for id := range present {
		op := byID[id]
		expected[op.src] -= op.amt
		expected[op.dst] += op.amt
	}
	var sum int64
	for i := 0; i < accounts; i++ {
		row, err := promoted.ReadRow(names[i], "bal", int64(0))
		if err != nil || row == nil {
			t.Fatalf("ReadRow(%s): %v", names[i], err)
		}
		v := row.Int64(1)
		if v != expected[i] {
			t.Fatalf("account %d: balance %d, want %d from the surviving-marker history", i, v, expected[i])
		}
		sum += v
	}
	if sum != want {
		t.Fatalf("final total %d, want %d", sum, want)
	}
	if ackedTotal == 0 || ackedNew == 0 {
		t.Fatalf("workload proved nothing: %d acked total, %d acked on the new primary", ackedTotal, ackedNew)
	}
	db.Close()
}
