package experiments

import (
	"fmt"
	"math"

	"reactdb/internal/bench"
	"reactdb/internal/core"
	"reactdb/internal/costmodel"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
	"reactdb/internal/workload/tpcc"
)

// tpccDeployments are the three database architectures of §3.3 that the TPC-C
// load experiments compare.
var tpccDeployments = []deployment{
	{name: "shared-everything-without-affinity", cfg: engine.NewSharedEverythingWithoutAffinity},
	{name: "shared-nothing-async", cfg: engine.NewSharedNothing},
	{name: "shared-everything-with-affinity", cfg: engine.NewSharedEverythingWithAffinity},
}

// tpccParams sizes a TPC-C database of the given scale factor.
func tpccParams(opts Options, scale int) tpcc.Params {
	params := tpcc.DefaultParams(scale)
	if !opts.Full {
		params.CustomersPerDistrict = 60
		params.Items = 200
	}
	return params
}

// openTPCC deploys a TPC-C database of the given scale factor under cfg.
func openTPCC(opts Options, cfg engine.Config, scale int) (*engine.Database, error) {
	params := tpccParams(opts, scale)
	cfg.Placement = tpcc.Placement
	cfg.Affinity = func(reactor string) int {
		if w := tpcc.WarehouseID(reactor); w > 0 {
			return w - 1
		}
		return 0
	}
	cfg.Costs = opts.loadCosts()
	db, err := engine.Open(tpcc.NewDefinition(params), cfg)
	if err != nil {
		return nil, err
	}
	if err := tpcc.Load(db, params); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// tpccGenerator returns the request stream of one client worker, with
// affinity to warehouse (worker mod scale)+1; cfg carries the mix and the
// probabilities that distinguish the experiments.
func tpccGenerator(opts Options, scale, worker int, cfg tpcc.GeneratorConfig) bench.Generator {
	cfg.Params = tpccParams(opts, scale)
	cfg.HomeWarehouse = worker%scale + 1
	cfg.Seed = int64(worker + 1)
	g := tpcc.NewGenerator(cfg)
	return func() bench.Request {
		req := g.Next()
		return bench.Request{Reactor: req.Reactor, Procedure: req.Procedure, Args: req.Args}
	}
}

// standardMix is the TPC-C standard transaction mix with its standard remote
// access probabilities.
func standardMix() tpcc.GeneratorConfig {
	return tpcc.GeneratorConfig{Mix: tpcc.StandardMix(), RemoteItemProbability: 0.01, RemotePaymentProbability: 0.15}
}

func (o Options) tpccWorkerCounts() []float64 {
	if o.Full {
		return []float64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return []float64{1, 2, 4, 8}
}

// openTPCCAt returns a sweep's open function for a fixed scale factor.
func openTPCCAt(scale int) func(Options, deployment, float64) (*engine.Database, error) {
	return func(opts Options, d deployment, _ float64) (*engine.Database, error) {
		return openTPCC(opts, d.cfg(scale), scale)
	}
}

// tpccLoad is the §4.3.1 experiment (Figures 7/8): the standard mix at scale
// factor 4 under varying load.
var tpccLoad = &loadSweep{
	throughput:  tableHead{"fig7", "TPC-C throughput [txn/s] with varying load at scale factor 4 (standard mix)"},
	latency:     tableHead{"fig8", "TPC-C avg latency [ms] with varying load at scale factor 4 (standard mix)"},
	xHeader:     "workers",
	xFormat:     "%.0f",
	note:        "expected shape: shared-everything-with-affinity best, shared-everything-without-affinity worst (paper Figures 7/8)",
	deployments: tpccDeployments,
	xs:          Options.tpccWorkerCounts,
	open:        openTPCCAt(4),
	workers:     workersFromX,
	generator: func(opts Options, _ deployment, _ float64, worker int) bench.Generator {
		return tpccGenerator(opts, 4, worker, standardMix())
	},
}

// newOrderDelay is the §4.3.2 asynchronicity trade-off experiment (Figures
// 9/10): 100% new-order with an artificial 300–400µs stock replenishment
// delay and 100% remote item probability, scale factor 8.
var newOrderDelay = &loadSweep{
	throughput: tableHead{"fig9", "Throughput [txn/s] of new-order-delay transactions with varying load (scale factor 8)"},
	latency:    tableHead{"fig10", "Avg latency [ms] of new-order-delay transactions with varying load (scale factor 8)"},
	xHeader:    "workers",
	xFormat:    "%.0f",
	note:       "expected shape: shared-nothing-async wins at low load (overlapped stock updates), shared-everything-with-affinity catches up or wins at high load (paper Figures 9/10)",
	deployments: []deployment{
		{name: "shared-nothing-async", cfg: engine.NewSharedNothing},
		{name: "shared-everything-with-affinity", cfg: engine.NewSharedEverythingWithAffinity},
	},
	xs:      Options.tpccWorkerCounts,
	open:    openTPCCAt(8),
	workers: workersFromX,
	generator: func(opts Options, _ deployment, _ float64, worker int) bench.Generator {
		return tpccGenerator(opts, 8, worker, tpcc.GeneratorConfig{
			Mix:                    tpcc.NewOrderOnlyMix(),
			RemoteItemProbability:  1.0,
			NewOrderDelayMinMicros: 300,
			NewOrderDelayMicros:    400,
		})
	},
}

// crossReactor is the Appendix E experiment (Figures 15/16): 100% new-order
// at scale factor 8 under peak load, varying the probability of cross-reactor
// item accesses, for four deployments (including shared-nothing-sync).
var crossReactor = &loadSweep{
	throughput: tableHead{"fig15", "Throughput [txn/s] of cross-reactor TPC-C new-order (scale factor 8, 8 workers)"},
	latency:    tableHead{"fig16", "Avg latency [ms] of cross-reactor TPC-C new-order (scale factor 8, 8 workers)"},
	xHeader:    "% cross-reactor",
	xFormat:    "%.0f",
	note:       "expected shape: shared-nothing deployments degrade as cross-reactor % grows, async degrades less than sync (paper Figures 15/16)",
	deployments: []deployment{
		{name: "shared-everything-without-affinity", cfg: engine.NewSharedEverythingWithoutAffinity},
		{name: "shared-nothing-async", cfg: engine.NewSharedNothing},
		{name: "shared-everything-with-affinity", cfg: engine.NewSharedEverythingWithAffinity},
		{name: "shared-nothing-sync", cfg: engine.NewSharedNothing, sync: true},
	},
	xs: func(opts Options) []float64 {
		if opts.Full {
			return []float64{0, 10, 20, 30, 40, 50, 100}
		}
		return []float64{0, 10, 50, 100}
	},
	open:    openTPCCAt(8),
	workers: func(deployment, float64) int { return 8 },
	generator: func(opts Options, d deployment, crossPct float64, worker int) bench.Generator {
		return tpccGenerator(opts, 8, worker, tpcc.GeneratorConfig{
			Mix:                   tpcc.NewOrderOnlyMix(),
			RemoteItemProbability: crossPct / 100,
			SyncStockUpdates:      d.sync,
		})
	},
}

// scaleUp is the Appendix F.1 experiment (Figures 17/18): the standard mix
// with as many executors and workers as warehouses.
var scaleUp = &loadSweep{
	throughput:  tableHead{"fig17", "TPC-C throughput [txn/s] with varying deployments (scale-up, workers = warehouses)"},
	latency:     tableHead{"fig18", "TPC-C avg latency [ms] with varying deployments (scale-up, workers = warehouses)"},
	xHeader:     "scale factor",
	xFormat:     "%.0f",
	note:        "expected shape: throughput grows with scale for affinity-preserving deployments; shared-everything-without-affinity scales worst (paper Figures 17/18); absolute scale-up is capped by the single host core",
	deployments: tpccDeployments,
	xs: func(opts Options) []float64 {
		if opts.Full {
			return []float64{1, 2, 4, 8, 16}
		}
		return []float64{1, 2, 4, 8}
	},
	open: func(opts Options, d deployment, scale float64) (*engine.Database, error) {
		return openTPCC(opts, d.cfg(int(scale)), int(scale))
	},
	perPoint: true,
	workers:  workersFromX,
	generator: func(opts Options, _ deployment, scale float64, worker int) bench.Generator {
		return tpccGenerator(opts, int(scale), worker, standardMix())
	},
}

// Tab1 reproduces Table 1 (Appendix D): TPC-C new-order performance at scale
// factor 4 under 1% and 100% cross-reactor access probability, with the cost
// model prediction for the single-worker latency.
func Tab1(opts Options) (*Table, error) {
	const scale = 4
	t := &Table{
		ID:     "tab1",
		Title:  "TPC-C new-order performance at scale factor 4 (observed vs. predicted)",
		Header: []string{"cross-reactor %", "workers", "TPS obs", "latency obs [ms]", "latency pred [ms]"},
	}
	db, err := openTPCC(opts, engine.NewSharedNothing(scale), scale)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	costs := db.Config().Costs
	cmParams := costmodel.Params{Cs: costs.Send, Cr: costs.Receive}

	// Calibrate the local processing cost of a new-order from a profiled run
	// with no remote accesses.
	calib, err := bench.MeasureProfiles(db, opts.profileCount(),
		tpccGenerator(opts, scale, 0, tpcc.GeneratorConfig{Mix: tpcc.NewOrderOnlyMix()}))
	if err != nil {
		return nil, err
	}
	baseProcessing := calib.MeanSync

	for _, crossPct := range []float64{0.01, 1.0} {
		for _, workers := range []int{1, 4} {
			tp, lat, err := runLoad(db, opts, workers, func(worker int) bench.Generator {
				return tpccGenerator(opts, scale, worker, tpcc.GeneratorConfig{
					Mix:                   tpcc.NewOrderOnlyMix(),
					RemoteItemProbability: crossPct,
				})
			})
			if err != nil {
				return nil, err
			}
			pred := "-"
			if workers == 1 {
				// Expected distinct remote warehouses touched by one new-order
				// with 10 items on average and the given cross probability.
				expectedRemote := expectedDistinctRemote(10, scale-1, crossPct)
				root := &costmodel.SubTxn{Container: 0, Pseq: baseProcessing}
				for i := 0; i < expectedRemote; i++ {
					root.Async = append(root.Async, costmodel.Leaf(i+1, costs.Processing))
				}
				pc := costmodel.Predict(root, cmParams)
				pred = formatDuration(pc.Total() + calib.MeanCommit + costs.Processing + costs.AffinityMiss)
			}
			t.AddRow(fmt.Sprintf("%.0f", crossPct*100), fmt.Sprintf("%d", workers),
				formatThroughput(tp), formatDuration(lat), pred)
		}
	}
	t.Notes = append(t.Notes, "predictions apply to the single-worker rows only; multi-worker rows include queueing effects outside the cost model, as in the paper")
	return t, nil
}

// expectedDistinctRemote estimates the number of distinct remote warehouses
// touched by an order of n items when each item is remote with probability p
// and remote warehouses are chosen uniformly among w candidates.
func expectedDistinctRemote(n, w int, p float64) int {
	if w <= 0 || p <= 0 {
		return 0
	}
	expRemoteItems := p * float64(n)
	// Expected number of distinct bins hit by expRemoteItems balls over w bins.
	distinct := float64(w) * (1 - math.Pow(1-1.0/float64(w), expRemoteItems))
	if distinct < 0 {
		distinct = 0
	}
	result := int(distinct + 0.5)
	if result == 0 && p > 0 {
		result = 1
	}
	if result > w {
		result = w
	}
	return result
}

// Affinity reproduces the Appendix F.2 observation: keeping TPC-C at scale
// factor 1 with a single worker, adding executors to the
// shared-everything-without-affinity deployment destroys locality and lowers
// throughput relative to a single executor.
func Affinity(opts Options) (*Table, error) {
	executorCounts := []int{1, 2, 4, 8}
	if opts.Full {
		executorCounts = []int{1, 2, 4, 8, 16}
	}
	t := &Table{
		ID:     "affinity",
		Title:  "Effect of affinity: shared-everything-without-affinity throughput at scale factor 1, 1 worker",
		Header: []string{"executors", "throughput [txn/s]", "relative to 1 executor"},
	}
	var base float64
	for _, execs := range executorCounts {
		db, err := openTPCC(opts, engine.NewSharedEverythingWithoutAffinity(execs), 1)
		if err != nil {
			return nil, err
		}
		tp, _, err := runLoad(db, opts, 1, func(worker int) bench.Generator {
			return tpccGenerator(opts, 1, worker, standardMix())
		})
		db.Close()
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = tp
		}
		rel := 1.0
		if base > 0 {
			rel = tp / base
		}
		t.AddRow(fmt.Sprintf("%d", execs), formatThroughput(tp), formatPercent(rel))
	}
	t.Notes = append(t.Notes, "expected shape: throughput degrades as executors are added without affinity (paper Appendix F.2: 86% at 2 executors down to 40% at 16)")
	return t, nil
}

// Overhead reproduces the Appendix F.3 measurement of containerization
// overhead: empty transactions with concurrency control disabled.
func Overhead(opts Options) (*Table, error) {
	schema := rel.MustSchema("noop", []rel.Column{{Name: "id", Type: rel.Int64}}, "id")
	typ := core.NewType("Empty").AddRelation(schema).
		AddProcedure("empty", func(ctx core.Context, args core.Args) (any, error) { return nil, nil })
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Empty", "empty-0", "empty-1", "empty-2", "empty-3")

	t := &Table{
		ID:     "overhead",
		Title:  "Containerization overhead: empty transactions with concurrency control disabled",
		Header: []string{"containers", "avg overhead per invocation [ms]"},
	}
	for _, containers := range []int{1, 2, 4} {
		cfg := engine.NewSharedNothing(containers)
		cfg.DisableCC = true
		cfg.Costs = opts.loadCosts()
		db, err := engine.Open(def, cfg)
		if err != nil {
			return nil, err
		}
		n := 200
		if opts.Full {
			n = 2000
		}
		summary, err := bench.MeasureProfiles(db, n, func() bench.Request {
			return bench.Request{Reactor: "empty-1", Procedure: "empty"}
		})
		db.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", containers), formatDuration(summary.MeanTotal))
	}
	t.Notes = append(t.Notes, "the paper reports ~22µs per invocation, dominated by cross-core thread switching; here the overhead is the modeled per-request processing cost plus goroutine handoff")
	return t, nil
}
