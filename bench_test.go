// Benchmarks: one per table and figure of the paper's evaluation, plus the
// single-container vs two-phase commit comparison.
//
// Each benchmark drives the workload/deployment combination of its figure with
// a single client and reports per-transaction latency (ns/op); the full
// multi-worker sweeps that regenerate the paper's series are produced by
// cmd/reactdb-bench (package internal/experiments), which the benchmarks here
// deliberately mirror at the per-transaction level so `go test -bench` stays
// tractable.
package reactdb_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"reactdb"
	"reactdb/internal/core"
	"reactdb/internal/costmodel"
	"reactdb/internal/engine"
	"reactdb/internal/randutil"
	"reactdb/internal/workload/exchange"
	"reactdb/internal/workload/smallbank"
	"reactdb/internal/workload/tpcc"
	"reactdb/internal/workload/ycsb"
)

// commCosts mirror the latency-control experiments (§4.2).
func commCosts() reactdb.Costs {
	return reactdb.Costs{Send: 40 * time.Microsecond, Receive: 80 * time.Microsecond}
}

// mustExecute fails the benchmark on unexpected errors but tolerates aborts
// that are part of the workload (conflicts, user aborts).
func mustExecute(b *testing.B, db *reactdb.Database, reactor, proc string, args ...any) {
	b.Helper()
	_, err := db.Execute(reactor, proc, args...)
	if err != nil && !errors.Is(err, engine.ErrConflict) && !core.IsUserAbort(err) {
		b.Fatalf("%s.%s: %v", reactor, proc, err)
	}
}

// --- Smallbank (Figures 5, 6, 11, 12) ----------------------------------------

func smallbankDB(b *testing.B, costs reactdb.Costs) *reactdb.Database {
	b.Helper()
	const containers, perContainer = 7, 10
	cfg := engine.NewSharedNothing(containers)
	cfg.Placement = smallbank.RangePlacement(perContainer)
	cfg.Costs = costs
	db, err := engine.Open(smallbank.NewDefinition(containers*perContainer), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := smallbank.Load(db, containers*perContainer, 1e9, 1e9); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	return db
}

func remoteDests(size, perContainer int) []string {
	dsts := make([]string, 0, size)
	for i := 0; i < size; i++ {
		dsts = append(dsts, smallbank.ReactorName((1+i%6)*perContainer+i))
	}
	return dsts
}

// BenchmarkFig5MultiTransfer measures the multi-transfer latency of every
// program formulation at transaction size 7 (Figure 5's right-most points).
func BenchmarkFig5MultiTransfer(b *testing.B) {
	for _, f := range smallbank.Formulations() {
		b.Run(string(f), func(b *testing.B) {
			db := smallbankDB(b, commCosts())
			src := smallbank.ReactorName(0)
			dsts := remoteDests(7, 10)
			proc, sequential := smallbank.MultiTransferProcedure(f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if proc == smallbank.ProcMultiTransferSync {
					mustExecute(b, db, src, proc, src, dsts, 1.0, sequential)
				} else {
					mustExecute(b, db, src, proc, src, dsts, 1.0)
				}
			}
		})
	}
}

// BenchmarkFig6CostModel measures evaluation of the Figure 3 cost equation
// used for the Figure 6 predictions.
func BenchmarkFig6CostModel(b *testing.B) {
	params := costmodel.Params{Cs: 40 * time.Microsecond, Cr: 80 * time.Microsecond}
	root := &costmodel.SubTxn{Container: 0}
	for i := 0; i < 7; i++ {
		root.Async = append(root.Async, costmodel.Leaf(i+1, 50*time.Microsecond))
	}
	root.SyncOvp = []*costmodel.SubTxn{costmodel.Leaf(0, 25*time.Microsecond)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if costmodel.Predict(root, params).Total() <= 0 {
			b.Fatal("prediction should be positive")
		}
	}
}

// BenchmarkFig11LocalVsRemote measures opt multi-transfers against local and
// remote destinations (Appendix B.1).
func BenchmarkFig11LocalVsRemote(b *testing.B) {
	dests := map[string][]string{
		"remote": remoteDests(7, 10),
		"local":  {smallbank.ReactorName(1), smallbank.ReactorName(2), smallbank.ReactorName(3), smallbank.ReactorName(4), smallbank.ReactorName(5), smallbank.ReactorName(6), smallbank.ReactorName(7)},
	}
	for name, dsts := range dests {
		b.Run(name, func(b *testing.B) {
			db := smallbankDB(b, commCosts())
			src := smallbank.ReactorName(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExecute(b, db, src, smallbank.ProcMultiTransferOpt, src, dsts, 1.0)
			}
		})
	}
}

// BenchmarkFig12ExecutorsSpanned measures fully-sync multi-transfers whose
// destinations span 1 vs. 7 executors (Appendix B.2 end points).
func BenchmarkFig12ExecutorsSpanned(b *testing.B) {
	spans := map[string][]string{
		"spanned=1": {smallbank.ReactorName(1), smallbank.ReactorName(2), smallbank.ReactorName(3), smallbank.ReactorName(4), smallbank.ReactorName(5), smallbank.ReactorName(6), smallbank.ReactorName(7)},
		"spanned=7": remoteDests(7, 10),
	}
	for name, dsts := range spans {
		b.Run(name, func(b *testing.B) {
			db := smallbankDB(b, commCosts())
			src := smallbank.ReactorName(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExecute(b, db, src, smallbank.ProcMultiTransferSync, src, dsts, 1.0, true)
			}
		})
	}
}

// --- TPC-C (Figures 7-10, 15-18, Table 1, affinity, overhead) ----------------

func tpccDB(b *testing.B, cfg engine.Config, scale int) (*reactdb.Database, tpcc.Params) {
	b.Helper()
	params := tpcc.Params{Warehouses: scale, CustomersPerDistrict: 60, Items: 200}
	cfg.Placement = tpcc.Placement
	cfg.Affinity = func(reactor string) int {
		if w := tpcc.WarehouseID(reactor); w > 0 {
			return w - 1
		}
		return 0
	}
	cfg.Costs = reactdb.DefaultExperimentCosts()
	db, err := engine.Open(tpcc.NewDefinition(params), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpcc.Load(db, params); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	return db, params
}

func tpccDeployments() map[string]func(int) engine.Config {
	return map[string]func(int) engine.Config{
		"shared-everything-without-affinity": engine.NewSharedEverythingWithoutAffinity,
		"shared-everything-with-affinity":    engine.NewSharedEverythingWithAffinity,
		"shared-nothing-async":               engine.NewSharedNothing,
	}
}

func runTPCCBench(b *testing.B, cfg engine.Config, scale int, gcfg func(tpcc.Params) tpcc.GeneratorConfig) {
	b.Helper()
	db, params := tpccDB(b, cfg, scale)
	g := tpcc.NewGenerator(gcfg(params))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := g.Next()
		mustExecute(b, db, req.Reactor, req.Procedure, req.Args...)
	}
}

// BenchmarkFig7TPCCThroughput drives the standard TPC-C mix at scale factor 4
// under the three deployments of §4.3.1 (throughput = 1/ns-per-op).
func BenchmarkFig7TPCCThroughput(b *testing.B) {
	for name, mk := range tpccDeployments() {
		b.Run(name, func(b *testing.B) {
			runTPCCBench(b, mk(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.StandardMix(),
					RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15, Seed: 1}
			})
		})
	}
}

// BenchmarkFig8TPCCLatency is the latency view of the same configuration
// (ns/op is the per-transaction latency the paper's Figure 8 plots).
func BenchmarkFig8TPCCLatency(b *testing.B) {
	for name, mk := range tpccDeployments() {
		b.Run(name, func(b *testing.B) {
			runTPCCBench(b, mk(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 2, Mix: tpcc.StandardMix(),
					RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15, Seed: 2}
			})
		})
	}
}

// BenchmarkFig9NewOrderDelayThroughput drives 100% new-order transactions with
// the 300-400µs stock replenishment delay and 100% remote items (§4.3.2).
func BenchmarkFig9NewOrderDelayThroughput(b *testing.B) {
	for _, name := range []string{"shared-nothing-async", "shared-everything-with-affinity"} {
		mk := tpccDeployments()[name]
		b.Run(name, func(b *testing.B) {
			runTPCCBench(b, mk(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.NewOrderOnlyMix(),
					RemoteItemProbability: 1.0, NewOrderDelayMinMicros: 300, NewOrderDelayMicros: 400, Seed: 3}
			})
		})
	}
}

// BenchmarkFig10NewOrderDelayLatency is the latency view of Figure 9's
// configuration at a different home warehouse.
func BenchmarkFig10NewOrderDelayLatency(b *testing.B) {
	for _, name := range []string{"shared-nothing-async", "shared-everything-with-affinity"} {
		mk := tpccDeployments()[name]
		b.Run(name, func(b *testing.B) {
			runTPCCBench(b, mk(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 3, Mix: tpcc.NewOrderOnlyMix(),
					RemoteItemProbability: 1.0, NewOrderDelayMinMicros: 300, NewOrderDelayMicros: 400, Seed: 4}
			})
		})
	}
}

// BenchmarkTab1NewOrder measures the Table 1 configurations: 100% new-order at
// 1% and 100% cross-reactor access probability on shared-nothing.
func BenchmarkTab1NewOrder(b *testing.B) {
	for _, cross := range []float64{0.01, 1.0} {
		b.Run(fmt.Sprintf("cross=%.0f%%", cross*100), func(b *testing.B) {
			runTPCCBench(b, engine.NewSharedNothing(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.NewOrderOnlyMix(),
					RemoteItemProbability: cross, Seed: 5}
			})
		})
	}
}

// BenchmarkFig15CrossReactorThroughput measures 100% new-order under 0% and
// 100% cross-reactor accesses for the async and sync shared-nothing program
// formulations (Appendix E).
func BenchmarkFig15CrossReactorThroughput(b *testing.B) {
	for _, sync := range []bool{false, true} {
		name := "shared-nothing-async"
		if sync {
			name = "shared-nothing-sync"
		}
		for _, cross := range []float64{0, 1.0} {
			b.Run(fmt.Sprintf("%s/cross=%.0f%%", name, cross*100), func(b *testing.B) {
				runTPCCBench(b, engine.NewSharedNothing(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
					return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.NewOrderOnlyMix(),
						RemoteItemProbability: cross, SyncStockUpdates: sync, Seed: 6}
				})
			})
		}
	}
}

// BenchmarkFig16CrossReactorLatency is the latency view of Appendix E for the
// shared-everything deployments.
func BenchmarkFig16CrossReactorLatency(b *testing.B) {
	for _, name := range []string{"shared-everything-with-affinity", "shared-everything-without-affinity"} {
		mk := tpccDeployments()[name]
		for _, cross := range []float64{0, 1.0} {
			b.Run(fmt.Sprintf("%s/cross=%.0f%%", name, cross*100), func(b *testing.B) {
				runTPCCBench(b, mk(4), 4, func(p tpcc.Params) tpcc.GeneratorConfig {
					return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.NewOrderOnlyMix(),
						RemoteItemProbability: cross, Seed: 7}
				})
			})
		}
	}
}

// BenchmarkFig17ScaleUpThroughput measures the standard mix at scale factors 1
// and 4 under the shared-nothing deployment (Appendix F.1).
func BenchmarkFig17ScaleUpThroughput(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			runTPCCBench(b, engine.NewSharedNothing(scale), scale, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.StandardMix(),
					RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15, Seed: 8}
			})
		})
	}
}

// BenchmarkFig18ScaleUpLatency measures the same configurations under the
// shared-everything-with-affinity deployment.
func BenchmarkFig18ScaleUpLatency(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			runTPCCBench(b, engine.NewSharedEverythingWithAffinity(scale), scale, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.StandardMix(),
					RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15, Seed: 9}
			})
		})
	}
}

// BenchmarkAffinityEffect measures the Appendix F.2 effect: TPC-C scale factor
// 1 on shared-everything-without-affinity with 1 vs. 8 executors.
func BenchmarkAffinityEffect(b *testing.B) {
	for _, executors := range []int{1, 8} {
		b.Run(fmt.Sprintf("executors=%d", executors), func(b *testing.B) {
			runTPCCBench(b, engine.NewSharedEverythingWithoutAffinity(executors), 1, func(p tpcc.Params) tpcc.GeneratorConfig {
				return tpcc.GeneratorConfig{Params: p, HomeWarehouse: 1, Mix: tpcc.StandardMix(),
					RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15, Seed: 10}
			})
		})
	}
}

// BenchmarkOverheadEmptyTransaction measures the containerization overhead of
// Appendix F.3: empty transactions with concurrency control disabled.
func BenchmarkOverheadEmptyTransaction(b *testing.B) {
	typ := reactdb.NewReactorType("Empty").
		AddRelation(reactdb.MustSchema("noop", []reactdb.Column{{Name: "id", Type: reactdb.Int64}}, "id")).
		AddProcedure("empty", func(ctx reactdb.Context, args reactdb.Args) (any, error) { return nil, nil })
	def := reactdb.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Empty", "e0", "e1")
	cfg := reactdb.SharedNothing(2)
	cfg.DisableCC = true
	cfg.Costs = reactdb.DefaultExperimentCosts()
	db := reactdb.MustOpen(def, cfg)
	b.Cleanup(db.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecute(b, db, "e1", "empty")
	}
}

// --- YCSB (Figures 13/14) -----------------------------------------------------

// BenchmarkFig13YCSBMultiUpdate measures multi_update latency at low and high
// skew (Appendix C): higher skew makes more sub-transactions local and lowers
// single-client latency.
func BenchmarkFig13YCSBMultiUpdate(b *testing.B) {
	const containers, perContainer = 4, 250
	for _, skew := range []float64{0.01, 0.99, 5} {
		b.Run(fmt.Sprintf("zipf=%.2f", skew), func(b *testing.B) {
			cfg := engine.NewSharedNothing(containers)
			cfg.Placement = ycsb.RangePlacement(perContainer)
			cfg.Costs = commCosts()
			db, err := engine.Open(ycsb.NewDefinition(containers*perContainer), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := ycsb.Load(db, containers*perContainer); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(db.Close)
			rng := randutil.New(1)
			z := randutil.NewZipfian(containers*perContainer, skew)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seen := map[int]bool{}
				var keys []string
				for len(keys) < ycsb.KeysPerMultiUpdate {
					k := z.Next(rng)
					if seen[k] {
						break
					}
					seen[k] = true
					keys = append(keys, ycsb.ReactorName(k))
				}
				home := keys[len(keys)-1]
				mustExecute(b, db, home, ycsb.ProcMultiUpdate, keys)
			}
		})
	}
}

// BenchmarkFig14YCSBReadModifyWrite measures the single-key building block of
// the Figure 14 throughput curves.
func BenchmarkFig14YCSBReadModifyWrite(b *testing.B) {
	cfg := engine.NewSharedNothing(2)
	cfg.Placement = ycsb.RangePlacement(100)
	db, err := engine.Open(ycsb.NewDefinition(200), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ycsb.Load(db, 200); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecute(b, db, ycsb.ReactorName(i%200), ycsb.ProcReadModifyWrite)
	}
}

// --- Exchange (Figure 19) ------------------------------------------------------

// BenchmarkFig19AuthPay measures auth_pay under the three execution strategies
// of Appendix G at a moderate sim_risk load.
func BenchmarkFig19AuthPay(b *testing.B) {
	params := exchange.DefaultParams()
	params.Providers = 7
	params.OrdersPerProvider = 100
	for _, strategy := range exchange.Strategies() {
		b.Run(string(strategy), func(b *testing.B) {
			containers := params.Providers + 1
			if strategy == exchange.Sequential {
				containers = 1
			}
			cfg := engine.NewSharedNothing(containers)
			cfg.Placement = exchange.Placement(containers)
			cfg.Costs = commCosts()
			db, err := engine.Open(exchange.NewDefinition(params), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := exchange.Load(db, params); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(db.Close)
			proc := exchange.ProcedureFor(strategy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExecute(b, db, exchange.ExchangeReactor, proc,
					exchange.ProviderName(i%params.Providers), int64(i), 1.0, int64(i+1), int64(2000), int64(0))
			}
		})
	}
}

// --- Ablation: single-container commit vs two-phase commit ---------------------

// BenchmarkAblationSingle2PC compares single-container commits (which bypass
// two-phase commit) against multi-container commits of the same logical work.
func BenchmarkAblationSingle2PC(b *testing.B) {
	deployments := map[string]engine.Config{
		"single-container-commit": engine.NewSharedEverythingWithAffinity(1),
		"two-phase-commit":        engine.NewSharedNothing(2),
	}
	for name, cfg := range deployments {
		b.Run(name, func(b *testing.B) {
			cfg.Placement = smallbank.RangePlacement(4)
			db, err := engine.Open(smallbank.NewDefinition(8), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := smallbank.Load(db, 8, 1e9, 1e9); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(db.Close)
			src := smallbank.ReactorName(0)
			dst := []string{smallbank.ReactorName(5)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExecute(b, db, src, smallbank.ProcMultiTransferOpt, src, dst, 1.0)
			}
		})
	}
}
