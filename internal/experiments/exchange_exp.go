package experiments

import (
	"fmt"

	"reactdb/internal/bench"
	"reactdb/internal/engine"
	"reactdb/internal/randutil"
	"reactdb/internal/workload/exchange"
)

// Fig19 reproduces Figure 19 (Appendix G): the latency of the auth_pay
// transaction under the sequential, query-parallelism and
// procedure-parallelism strategies as the computational load of sim_risk
// grows.
func Fig19(opts Options) (*Table, error) {
	params := exchange.DefaultParams()
	params.OrdersPerProvider = 400
	simLoads := []int64{100, 10_000, 100_000}
	runs := 5
	if opts.Full {
		params.OrdersPerProvider = 30000
		simLoads = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000}
		runs = 20
	}

	// Sequential uses a single container and executor for all reactors; the
	// parallel strategies use one executor per reactor.
	openFor := func(strategy exchange.Strategy) (*engine.Database, error) {
		var cfg engine.Config
		if strategy == exchange.Sequential {
			cfg = engine.NewSharedNothing(1)
		} else {
			cfg = engine.NewSharedNothing(params.Providers + 1)
		}
		cfg.Placement = exchange.Placement(cfg.Containers)
		cfg.Costs = opts.commCosts()
		db, err := engine.Open(exchange.NewDefinition(params), cfg)
		if err != nil {
			return nil, err
		}
		if err := exchange.Load(db, params); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}

	strategies := []exchange.Strategy{exchange.QueryParallelism, exchange.ProcedureParallelism, exchange.Sequential}
	results := make([][]string, len(strategies))
	for i, strategy := range strategies {
		db, err := openFor(strategy)
		if err != nil {
			return nil, err
		}
		rng := randutil.New(7)
		// The logical clock is monotone across the whole sweep so that the
		// provider risk caches (refreshed at time "now") are always stale and
		// sim_risk runs on every auth_pay, as in the appendix's setup.
		now := int64(0)
		for _, load := range simLoads {
			proc := exchange.ProcedureFor(strategy)
			summary, err := bench.MeasureProfiles(db, runs, func() bench.Request {
				now++
				provider := exchange.ProviderName(randutil.UniformInt(rng, 0, params.Providers-1))
				wallet := int64(randutil.UniformInt(rng, 1, 1000))
				return bench.Request{
					Reactor:   exchange.ExchangeReactor,
					Procedure: proc,
					Args:      []any{provider, wallet, 1.0, now, load, int64(0)},
				}
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			results[i] = append(results[i], formatDuration(summary.MeanTotal))
		}
		db.Close()
	}
	labels := make([]string, len(simLoads))
	for i, load := range simLoads {
		labels[i] = fmt.Sprintf("%d", load)
	}
	return seriesTable("fig19", "Latency [ms] of query- vs. procedure-level parallelism (auth_pay, 15 providers)",
		"random numbers per provider", []string{"query-parallelism", "procedure-parallelism", "sequential"}, labels,
		"expected shape: procedure-parallelism stays nearly flat in provider count terms and wins by a growing factor as sim_risk load rises; sequential and query-parallelism grow with providers × load (paper Figure 19)",
		func(row, col int) string { return results[col][row] }), nil
}
