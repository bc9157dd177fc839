package experiments

import (
	"sort"
	"time"

	"reactdb/internal/bench"
	"reactdb/internal/costmodel"
	"reactdb/internal/engine"
	"reactdb/internal/randutil"
	"reactdb/internal/workload/ycsb"
)

// ycsbContainers and ycsbKeysPerContainer mirror Appendix C: four containers,
// one executor each, each holding a contiguous range of key reactors.
const ycsbContainers = 4

func ycsbKeysPerContainer(opts Options) int {
	if opts.Full {
		return 10000
	}
	return 250
}

func openYCSB(opts Options) (*engine.Database, error) {
	perCont := ycsbKeysPerContainer(opts)
	keys := ycsbContainers * perCont
	cfg := engine.NewSharedNothing(ycsbContainers)
	cfg.Placement = ycsb.RangePlacement(perCont)
	cfg.Costs = opts.commCosts()
	db, err := engine.Open(ycsb.NewDefinition(keys), cfg)
	if err != nil {
		return nil, err
	}
	if err := ycsb.Load(db, keys); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// multiUpdateGenerator issues multi_update on 10 keys drawn from a zipfian
// distribution with the given skew: it deduplicates them (the §2.2.4 safety
// condition forbids two sub-transactions on the same reactor), invokes the
// procedure on one of the chosen keys, and orders remote keys before the
// local home key.
func multiUpdateGenerator(opts Options, skew float64, seed int64) bench.Generator {
	perCont := ycsbKeysPerContainer(opts)
	rng := randutil.New(seed)
	z := randutil.NewZipfian(ycsbContainers*perCont, skew)
	return func() bench.Request {
		seen := make(map[int]bool, ycsb.KeysPerMultiUpdate)
		var ids []int
		for i := 0; i < ycsb.KeysPerMultiUpdate; i++ {
			k := z.Next(rng)
			if !seen[k] {
				seen[k] = true
				ids = append(ids, k)
			}
		}
		// Invoke on a randomly chosen key of the set; its container hosts the
		// "local" sub-transactions.
		home := ids[randutil.UniformInt(rng, 0, len(ids)-1)]
		homeContainer := home / perCont
		sort.Slice(ids, func(i, j int) bool {
			ri := ids[i]/perCont != homeContainer
			rj := ids[j]/perCont != homeContainer
			if ri != rj {
				return ri // remote keys first
			}
			return ids[i] < ids[j]
		})
		names := make([]string, 0, len(ids))
		for _, id := range ids {
			if id == home {
				continue
			}
			names = append(names, ycsb.ReactorName(id))
		}
		names = append(names, ycsb.ReactorName(home))
		return bench.Request{Reactor: ycsb.ReactorName(home), Procedure: ycsb.ProcMultiUpdate, Args: []any{names}}
	}
}

func (o Options) ycsbSkews() []float64 {
	if o.Full {
		return []float64{0.01, 0.5, 0.99, 2, 5}
	}
	return []float64{0.01, 0.99, 5}
}

// ycsbSkew is the Appendix C experiment (Figures 13/14): multi_update latency
// and throughput under varying skew, observed with one and with four client
// workers, next to the cost model's single-worker prediction.
var ycsbSkew = &loadSweep{
	latency:      tableHead{"fig13", "Effect of skew and queuing on YCSB multi_update latency [ms]"},
	throughput:   tableHead{"fig14", "Effect of skew and queuing on YCSB multi_update throughput [txn/s]"},
	latencyFirst: true,
	xHeader:      "zipfian constant",
	xFormat:      "%.2f",
	note:         "expected shape: single-worker latency decreases with skew (more sub-transactions become local); queueing with 4 workers raises latency, which the cost model deliberately does not capture (paper Appendix C)",
	deployments: []deployment{
		{name: "1 worker obs", workers: 1},
		{name: "4 workers obs", workers: 4},
	},
	xs: Options.ycsbSkews,
	open: func(opts Options, _ deployment, _ float64) (*engine.Database, error) {
		return openYCSB(opts)
	},
	workers: func(d deployment, _ float64) int { return d.workers },
	generator: func(opts Options, _ deployment, skew float64, worker int) bench.Generator {
		return multiUpdateGenerator(opts, skew, int64(worker+1))
	},
	predictHeader: "1 worker pred",
	predict:       predictMultiUpdate,
}

// predictMultiUpdate evaluates the cost equation for a multi_update at the
// given skew.
func predictMultiUpdate(opts Options, db *engine.Database, skew float64) (time.Duration, error) {
	costs := db.Config().Costs
	// Calibrate the per-update processing cost from single-key updates chosen
	// uniformly, as the appendix describes.
	rng := randutil.New(11)
	keys := ycsbContainers * ycsbKeysPerContainer(opts)
	calib, err := bench.MeasureProfiles(db, opts.profileCount(), func() bench.Request {
		id := randutil.UniformInt(rng, 0, keys-1)
		return bench.Request{Reactor: ycsb.ReactorName(id), Procedure: ycsb.ProcReadModifyWrite}
	})
	if err != nil {
		return 0, err
	}
	// Measure the realized sizes of the remote (async) and local (sync)
	// sub-transaction sequences by sampling the generator.
	gen := multiUpdateGenerator(opts, skew, 99)
	const samples = 50
	var remote, local float64
	for i := 0; i < samples; i++ {
		req := gen()
		homeContainer, _ := db.ContainerIndexOf(req.Reactor)
		for _, name := range req.Args[0].([]string) {
			if c, _ := db.ContainerIndexOf(name); c == homeContainer {
				local++
			} else {
				remote++
			}
		}
	}
	root := &costmodel.SubTxn{Container: 0}
	for i := 0; i < int(remote/samples+0.5); i++ {
		root.Async = append(root.Async, costmodel.Leaf(i+1, calib.MeanSync))
	}
	for i := 0; i < int(local/samples+0.5); i++ {
		root.SyncOvp = append(root.SyncOvp, costmodel.Leaf(0, calib.MeanSync))
	}
	params := costmodel.Params{Cs: costs.Send, Cr: costs.Receive}
	return costmodel.Predict(root, params).Total() + calib.MeanCommit, nil
}
