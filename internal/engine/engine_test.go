package engine

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
	"reactdb/internal/vclock"
)

// accountType builds a small "Account" reactor type used throughout the engine
// tests: a single-row balance relation plus procedures exercising reads,
// writes, asynchronous calls, aborts, and dangerous call structures.
func accountType() *core.Type {
	balance := rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id")
	history := rel.MustSchema("history",
		[]rel.Column{
			{Name: "seq", Type: rel.Int64},
			{Name: "delta", Type: rel.Float64},
		}, "seq")

	t := core.NewType("Account").AddRelation(balance).AddRelation(history)

	t.AddProcedure("get_balance", func(ctx core.Context, args core.Args) (any, error) {
		row, err := ctx.Get("balance", int64(0))
		if err != nil {
			return nil, err
		}
		if row == nil {
			return float64(0), nil
		}
		return row.Float64(1), nil
	})

	t.AddProcedure("credit", func(ctx core.Context, args core.Args) (any, error) {
		amt := args.Float64(0)
		row, err := ctx.Get("balance", int64(0))
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, core.Abortf("account %s not initialized", ctx.Reactor())
		}
		return nil, ctx.Update("balance", rel.Row{int64(0), row.Float64(1) + amt})
	})

	t.AddProcedure("debit", func(ctx core.Context, args core.Args) (any, error) {
		amt := args.Float64(0)
		row, err := ctx.Get("balance", int64(0))
		if err != nil {
			return nil, err
		}
		if row == nil || row.Float64(1) < amt {
			return nil, core.Abortf("insufficient funds on %s", ctx.Reactor())
		}
		return nil, ctx.Update("balance", rel.Row{int64(0), row.Float64(1) - amt})
	})

	// transfer: asynchronous credit on the destination reactor, local debit.
	t.AddProcedure("transfer", func(ctx core.Context, args core.Args) (any, error) {
		dst := args.String(0)
		amt := args.Float64(1)
		fut, err := ctx.Call(dst, "credit", amt)
		if err != nil {
			return nil, err
		}
		if _, err := ctx.Call(ctx.Reactor(), "debit", amt); err != nil {
			return nil, err
		}
		_, err = fut.Get()
		return nil, err
	})

	// fan_in_same_reactor triggers the dangerous structure of §2.2.4: two
	// asynchronous sub-transactions on the same destination reactor.
	t.AddProcedure("fan_in_same_reactor", func(ctx core.Context, args core.Args) (any, error) {
		dst := args.String(0)
		if _, err := ctx.Call(dst, "credit", 1.0); err != nil {
			return nil, err
		}
		if _, err := ctx.Call(dst, "credit", 1.0); err != nil {
			return nil, err
		}
		return nil, nil
	})

	// audit_total sums balances across the given reactors synchronously.
	t.AddProcedure("audit_total", func(ctx core.Context, args core.Args) (any, error) {
		total := 0.0
		self, err := ctx.Get("balance", int64(0))
		if err != nil {
			return nil, err
		}
		if self != nil {
			total += self.Float64(1)
		}
		for _, other := range args.Strings(0) {
			if other == ctx.Reactor() {
				continue
			}
			v, err := ctx.CallSync(other, "get_balance")
			if err != nil {
				return nil, err
			}
			total += v.(float64)
		}
		return total, nil
	})

	// log_and_fail inserts into history and then aborts, to test rollback of
	// inserts across reactors.
	t.AddProcedure("log_and_fail", func(ctx core.Context, args core.Args) (any, error) {
		dst := args.String(0)
		if err := ctx.Insert("history", rel.Row{int64(1), 5.0}); err != nil {
			return nil, err
		}
		if _, err := ctx.Call(dst, "log_entry", int64(1), 5.0); err != nil {
			return nil, err
		}
		return nil, core.Abortf("deliberate failure")
	})

	t.AddProcedure("log_entry", func(ctx core.Context, args core.Args) (any, error) {
		return nil, ctx.Insert("history", rel.Row{args.Int64(0), args.Float64(1)})
	})

	t.AddProcedure("count_history", func(ctx core.Context, args core.Args) (any, error) {
		n, err := core.CountRows(ctx, "history")
		return int64(n), err
	})

	t.AddProcedure("noop", func(ctx core.Context, args core.Args) (any, error) {
		return nil, nil
	})

	t.AddProcedure("panics", func(ctx core.Context, args core.Args) (any, error) {
		panic("boom")
	})

	t.AddProcedure("self_call", func(ctx core.Context, args core.Args) (any, error) {
		// A direct self-call must be inlined and immediately resolved.
		fut, err := ctx.Call(ctx.Reactor(), "get_balance")
		if err != nil {
			return nil, err
		}
		if !fut.Resolved() {
			return nil, fmt.Errorf("self-call future not resolved synchronously")
		}
		return fut.Get()
	})

	t.AddProcedure("spin_work", func(ctx core.Context, args core.Args) (any, error) {
		ctx.Work(time.Duration(args.Int64(0)) * time.Microsecond)
		return nil, nil
	})

	return t
}

// accountNames returns n account reactor names acct-0 .. acct-n-1.
func accountNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "acct-" + strconv.Itoa(i)
	}
	return names
}

// openAccounts deploys n account reactors under cfg, each preloaded with the
// given balance, with acct-i placed on container i mod Containers.
func openAccounts(t testing.TB, n int, initial float64, cfg Config) *Database {
	t.Helper()
	names := accountNames(n)
	def := core.NewDatabaseDef().MustAddType(accountType())
	def.MustDeclareReactors("Account", names...)
	cfg.Placement = func(reactor string) int {
		var idx int
		_, err := fmt.Sscanf(reactor, "acct-%d", &idx)
		if err != nil {
			return 0
		}
		return idx
	}
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, name := range names {
		db.MustLoad(name, "balance", rel.Row{int64(0), initial})
	}
	t.Cleanup(db.Close)
	return db
}

func balanceOf(t testing.TB, db *Database, reactor string) float64 {
	t.Helper()
	row, err := db.ReadRow(reactor, "balance", int64(0))
	if err != nil {
		t.Fatalf("ReadRow(%s): %v", reactor, err)
	}
	if row == nil {
		t.Fatalf("balance row missing on %s", reactor)
	}
	return row.Float64(1)
}

func allConfigs(executorsOrContainers int) map[string]Config {
	return map[string]Config{
		"shared-everything-without-affinity": NewSharedEverythingWithoutAffinity(executorsOrContainers),
		"shared-everything-with-affinity":    NewSharedEverythingWithAffinity(executorsOrContainers),
		"shared-nothing":                     NewSharedNothing(executorsOrContainers),
	}
}

func TestExecuteSimpleReadWriteAcrossDeployments(t *testing.T) {
	for name, cfg := range allConfigs(4) {
		t.Run(name, func(t *testing.T) {
			db := openAccounts(t, 8, 100, cfg)
			if _, err := db.Execute("acct-1", "credit", 25.0); err != nil {
				t.Fatalf("credit: %v", err)
			}
			if got := balanceOf(t, db, "acct-1"); got != 125 {
				t.Fatalf("balance = %v, want 125", got)
			}
			v, err := db.Execute("acct-1", "get_balance")
			if err != nil || v.(float64) != 125 {
				t.Fatalf("get_balance = (%v, %v)", v, err)
			}
		})
	}
}

func TestCrossReactorTransferAcrossDeployments(t *testing.T) {
	for name, cfg := range allConfigs(4) {
		t.Run(name, func(t *testing.T) {
			db := openAccounts(t, 8, 100, cfg)
			if _, err := db.Execute("acct-0", "transfer", "acct-5", 40.0); err != nil {
				t.Fatalf("transfer: %v", err)
			}
			if got := balanceOf(t, db, "acct-0"); got != 60 {
				t.Fatalf("source balance = %v, want 60", got)
			}
			if got := balanceOf(t, db, "acct-5"); got != 140 {
				t.Fatalf("destination balance = %v, want 140", got)
			}
		})
	}
}

func TestUserAbortRollsBackAllReactors(t *testing.T) {
	for name, cfg := range allConfigs(4) {
		t.Run(name, func(t *testing.T) {
			db := openAccounts(t, 4, 10, cfg)
			// Debit more than the balance: the local abort must also roll back
			// the already-applied asynchronous credit on the destination.
			_, err := db.Execute("acct-0", "transfer", "acct-2", 1000.0)
			if !core.IsUserAbort(err) {
				t.Fatalf("expected user abort, got %v", err)
			}
			if got := balanceOf(t, db, "acct-2"); got != 10 {
				t.Fatalf("credit leaked to destination on abort: %v", got)
			}
			if got := balanceOf(t, db, "acct-0"); got != 10 {
				t.Fatalf("source modified on abort: %v", got)
			}
		})
	}
}

func TestAbortRollsBackInsertsOnRemoteReactor(t *testing.T) {
	db := openAccounts(t, 4, 10, NewSharedNothing(4))
	_, err := db.Execute("acct-0", "log_and_fail", "acct-3")
	if !core.IsUserAbort(err) {
		t.Fatalf("expected user abort, got %v", err)
	}
	for _, r := range []string{"acct-0", "acct-3"} {
		v, err := db.Execute(r, "count_history")
		if err != nil {
			t.Fatalf("count_history: %v", err)
		}
		if v.(int64) != 0 {
			t.Fatalf("aborted insert visible on %s", r)
		}
	}
}

func TestDangerousStructureAborts(t *testing.T) {
	db := openAccounts(t, 4, 10, NewSharedNothing(4))
	_, err := db.Execute("acct-0", "fan_in_same_reactor", "acct-2")
	if !errors.Is(err, core.ErrDangerousStructure) {
		t.Fatalf("expected dangerous structure abort, got %v", err)
	}
	if got := balanceOf(t, db, "acct-2"); got != 10 {
		t.Fatalf("dangerous transaction leaked state: %v", got)
	}
}

func TestSelfCallInlining(t *testing.T) {
	db := openAccounts(t, 2, 42, NewSharedNothing(2))
	v, err := db.Execute("acct-1", "self_call")
	if err != nil {
		t.Fatalf("self_call: %v", err)
	}
	if v.(float64) != 42 {
		t.Fatalf("self_call = %v, want 42", v)
	}
}

func TestSynchronousAuditReadsConsistentTotal(t *testing.T) {
	db := openAccounts(t, 6, 50, NewSharedNothing(6))
	v, err := db.Execute("acct-0", "audit_total", accountNames(6))
	if err != nil {
		t.Fatalf("audit_total: %v", err)
	}
	if v.(float64) != 300 {
		t.Fatalf("audit_total = %v, want 300", v)
	}
}

func TestPanicInProcedureBecomesError(t *testing.T) {
	db := openAccounts(t, 2, 10, NewSharedEverythingWithAffinity(2))
	if _, err := db.Execute("acct-0", "panics"); err == nil {
		t.Fatalf("panicking procedure should return an error")
	}
	// The database keeps working afterwards.
	if _, err := db.Execute("acct-0", "credit", 1.0); err != nil {
		t.Fatalf("engine broken after procedure panic: %v", err)
	}
}

func TestUnknownReactorAndProcedure(t *testing.T) {
	db := openAccounts(t, 2, 10, NewSharedNothing(2))
	if _, err := db.Execute("missing", "noop"); !errors.Is(err, core.ErrUnknownReactor) {
		t.Fatalf("expected ErrUnknownReactor, got %v", err)
	}
	if _, err := db.Execute("acct-0", "missing"); !errors.Is(err, core.ErrUnknownProcedure) {
		t.Fatalf("expected ErrUnknownProcedure, got %v", err)
	}
}

// TestMoneyConservedUnderConcurrentLoad is the engine-level serializability
// stress test: concurrent transfers across reactors and containers must
// conserve the total balance under every deployment strategy.
func TestMoneyConservedUnderConcurrentLoad(t *testing.T) {
	const (
		accounts = 12
		workers  = 8
		ops      = 120
		initial  = 1000.0
	)
	for name, cfg := range allConfigs(4) {
		t.Run(name, func(t *testing.T) {
			db := openAccounts(t, accounts, initial, cfg)
			var wg sync.WaitGroup
			var committed atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						src := (seed*31 + i*17) % accounts
						dst := (seed*13 + i*7 + 1) % accounts
						if src == dst {
							continue
						}
						_, err := db.Execute(
							"acct-"+strconv.Itoa(src), "transfer",
							"acct-"+strconv.Itoa(dst), 1.0)
						if err == nil {
							committed.Add(1)
						} else if !errors.Is(err, ErrConflict) && !core.IsUserAbort(err) {
							t.Errorf("unexpected error: %v", err)
							return
						}
					}
				}(w + 1)
			}
			wg.Wait()
			var total float64
			for i := 0; i < accounts; i++ {
				total += balanceOf(t, db, "acct-"+strconv.Itoa(i))
			}
			if total != accounts*initial {
				t.Fatalf("total balance %v, want %v", total, accounts*initial)
			}
			if committed.Load() == 0 {
				t.Fatalf("no transfers committed")
			}
			dbCommitted, _ := db.Stats()
			if dbCommitted == 0 {
				t.Fatalf("domain commit counters not updated")
			}
		})
	}
}

func TestConflictingTransactionsReportErrConflict(t *testing.T) {
	// Force many concurrent increments of the same account through different
	// containers' executors; some must conflict, none may be lost.
	db := openAccounts(t, 2, 0, NewSharedEverythingWithoutAffinity(4))
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := db.Execute("acct-0", "credit", 1.0); err == nil {
					committed.Add(1)
				} else if !errors.Is(err, ErrConflict) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := balanceOf(t, db, "acct-0"); got != float64(committed.Load()) {
		t.Fatalf("balance %v does not match committed count %d", got, committed.Load())
	}
}

func TestProfileComponentsPopulated(t *testing.T) {
	costs := vclock.Costs{Send: 200 * time.Microsecond, Receive: 400 * time.Microsecond}
	// receiveCharged is the engine's rule (installWaitHooks, paper §4.2.1):
	// the receive cost is charged once when the caller blocked on the remote
	// result, and not at all when the result was there before it waited.
	receiveCharged := func(t *testing.T, p Profile) {
		t.Helper()
		want := time.Duration(0)
		if p.BlockedWait > 0 {
			want = costs.Receive
		}
		if p.Cr != want {
			t.Fatalf("Cr = %v with BlockedWait = %v, want %v", p.Cr, p.BlockedWait, want)
		}
	}

	cfg := NewSharedNothing(4)
	cfg.Costs = costs
	db := openAccounts(t, 4, 100, cfg)
	_, profile, err := db.ExecuteProfiled("acct-0", "transfer", "acct-2", 5.0)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if profile.RemoteCalls != 1 {
		t.Fatalf("RemoteCalls = %d, want 1", profile.RemoteCalls)
	}
	if profile.Cs < costs.Send {
		t.Fatalf("send cost not charged: Cs=%v", profile.Cs)
	}
	receiveCharged(t, profile)
	if profile.Containers != 2 {
		t.Fatalf("Containers = %d, want 2", profile.Containers)
	}
	if profile.Total <= 0 || profile.Commit < 0 {
		t.Fatalf("profile durations not populated: %+v", profile)
	}
	if profile.Aborted {
		t.Fatalf("profile should not be marked aborted")
	}

	// The blocking arm: the remote procedure holds its result until a root on
	// the caller's one-executor container has run, which it can only do once
	// the caller released that core — blocked in Get, since the result it
	// waits for is not there yet.
	gate, started := make(chan struct{}), make(chan struct{}, 1)
	typ := core.NewType("Gate").AddRelation(rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id"))
	typ.AddProcedure("call", func(ctx core.Context, args core.Args) (any, error) {
		fut, err := ctx.Call(args.String(0), "wait")
		if err != nil {
			return nil, err
		}
		return fut.Get()
	})
	typ.AddProcedure("wait", func(ctx core.Context, args core.Args) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	})
	typ.AddProcedure("noop", func(ctx core.Context, args core.Args) (any, error) { return nil, nil })
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Gate", "g0", "g1")
	cfg = NewSharedNothing(2)
	cfg.Costs = costs
	cfg.Placement = func(reactor string) int { return int(reactor[1] - '0') }
	gated := MustOpen(def, cfg)
	t.Cleanup(gated.Close)
	type outcome struct {
		p   Profile
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, p, err := gated.ExecuteProfiled("g0", "call", "g1")
		done <- outcome{p, err}
	}()
	<-started
	if _, err := gated.Execute("g0", "noop"); err != nil {
		t.Fatalf("noop beside the blocked caller: %v", err)
	}
	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("call: %v", out.err)
	}
	if out.p.BlockedWait <= 0 || out.p.Cr < costs.Receive {
		t.Fatalf("a caller that blocked: BlockedWait = %v, Cr = %v; want both charged", out.p.BlockedWait, out.p.Cr)
	}
	receiveCharged(t, out.p)
}

func TestRemoteCallsOnlyWhenCrossingContainers(t *testing.T) {
	// In a single-container deployment, cross-reactor calls must be inlined
	// (no remote dispatch, no communication cost).
	cfg := NewSharedEverythingWithAffinity(4)
	cfg.Costs = vclock.Costs{Send: 500 * time.Microsecond, Receive: 500 * time.Microsecond}
	db := openAccounts(t, 4, 100, cfg)
	_, profile, err := db.ExecuteProfiled("acct-0", "transfer", "acct-3", 5.0)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if profile.RemoteCalls != 0 || profile.Cs != 0 || profile.Cr != 0 {
		t.Fatalf("single-container deployment should not dispatch remote calls: %+v", profile)
	}
	if profile.Containers != 1 {
		t.Fatalf("Containers = %d, want 1", profile.Containers)
	}
}

func TestRoundRobinRouterSpreadsRootTransactions(t *testing.T) {
	cfg := NewSharedEverythingWithoutAffinity(4)
	db := openAccounts(t, 1, 0, cfg)
	for i := 0; i < 40; i++ {
		if _, err := db.Execute("acct-0", "noop"); err != nil {
			t.Fatalf("noop: %v", err)
		}
	}
	execs := db.Containers()[0].Executors()
	for _, e := range execs {
		if e.Processed() == 0 {
			t.Fatalf("round-robin router left executor %d idle", e.ID())
		}
	}
}

func TestAffinityRouterPinsReactorToOneExecutor(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(4)
	db := openAccounts(t, 1, 0, cfg)
	for i := 0; i < 40; i++ {
		if _, err := db.Execute("acct-0", "noop"); err != nil {
			t.Fatalf("noop: %v", err)
		}
	}
	busy := 0
	for _, e := range db.Containers()[0].Executors() {
		if e.Processed() > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("affinity router used %d executors for one reactor, want 1", busy)
	}
}

func TestDisableCCOverheadPath(t *testing.T) {
	cfg := NewSharedNothing(2)
	cfg.DisableCC = true
	db := openAccounts(t, 2, 0, cfg)
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("acct-0", "noop"); err != nil {
			t.Fatalf("noop with CC disabled: %v", err)
		}
	}
	committed, aborted := db.Stats()
	if committed != 0 || aborted != 0 {
		t.Fatalf("CC-disabled transactions must bypass the commit protocol, got (%d, %d)", committed, aborted)
	}
}

func TestWorkOccupiesVirtualCore(t *testing.T) {
	db := openAccounts(t, 1, 0, NewSharedNothing(1))
	db.ResetExecutorStats()
	start := time.Now()
	if _, err := db.Execute("acct-0", "spin_work", int64(20000)); err != nil { // 20ms
		t.Fatalf("spin_work: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("simulated work finished too fast: %v", elapsed)
	}
	util := db.ExecutorUtilization()[0][0]
	if util <= 0 {
		t.Fatalf("executor utilization not accounted: %v", util)
	}
}

func TestExecuteProfiledLatencyCoversWork(t *testing.T) {
	db := openAccounts(t, 1, 0, NewSharedNothing(1))
	_, profile, err := db.ExecuteProfiled("acct-0", "spin_work", int64(5000))
	if err != nil {
		t.Fatalf("spin_work: %v", err)
	}
	if profile.Total < 5*time.Millisecond {
		t.Fatalf("profile total %v should cover the 5ms of simulated work", profile.Total)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero config should validate with defaults: %v", err)
	}
	if cfg.Containers != 1 || cfg.ExecutorsPerContainer != 1 || cfg.Router != RouterAffinity {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	bad := Config{Router: RouterKind("bogus")}
	if err := bad.Validate(); err == nil {
		t.Fatalf("invalid router kind accepted")
	}
	if cfg.Strategy == "" {
		t.Fatalf("strategy default not applied")
	}
}

func TestPlacementAndAffinityClamping(t *testing.T) {
	cfg := Config{
		Containers:            3,
		ExecutorsPerContainer: 2,
		Placement:             func(string) int { return -7 },
		Affinity:              func(string) int { return 11 },
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.placementFor("x"); got < 0 || got >= 3 {
		t.Fatalf("placement not clamped: %d", got)
	}
	if got := cfg.affinityFor("x"); got < 0 || got >= 2 {
		t.Fatalf("affinity not clamped: %d", got)
	}
}

func TestOpenRejectsInvalidDefinition(t *testing.T) {
	if _, err := Open(core.NewDatabaseDef(), NewSharedNothing(1)); err == nil {
		t.Fatalf("empty definition should be rejected")
	}
}

func TestLoadAndReadRowErrors(t *testing.T) {
	db := openAccounts(t, 2, 10, NewSharedNothing(2))
	if err := db.Load("missing", "balance", rel.Row{int64(0), 1.0}); !errors.Is(err, core.ErrUnknownReactor) {
		t.Fatalf("Load on missing reactor: %v", err)
	}
	if err := db.Load("acct-0", "missing", rel.Row{int64(0), 1.0}); !errors.Is(err, core.ErrUnknownRelation) {
		t.Fatalf("Load on missing relation: %v", err)
	}
	if _, err := db.ReadRow("missing", "balance", int64(0)); !errors.Is(err, core.ErrUnknownReactor) {
		t.Fatalf("ReadRow on missing reactor: %v", err)
	}
	if db.TableLen("acct-0", "balance") != 1 {
		t.Fatalf("TableLen wrong")
	}
	if db.TableLen("missing", "balance") != 0 {
		t.Fatalf("TableLen of missing reactor should be 0")
	}
	if idx, ok := db.ContainerIndexOf("acct-1"); !ok || idx != 1 {
		t.Fatalf("ContainerIndexOf = (%d, %v)", idx, ok)
	}
	if _, ok := db.ContainerIndexOf("missing"); ok {
		t.Fatalf("ContainerIndexOf of missing reactor should report false")
	}
	db.Close()
	// Close is idempotent.
	db.Close()
}
