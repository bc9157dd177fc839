package experiments

import (
	"fmt"
	"time"

	"reactdb/internal/bench"
	"reactdb/internal/engine"
)

// deployment is one series of a load sweep: a database architecture the
// workload is deployed under, and one column of both of the sweep's tables.
type deployment struct {
	name string
	cfg  func(executors int) engine.Config
	// sync makes TPC-C new-order await every stock update immediately (the
	// shared-nothing-sync program formulation of §3.3).
	sync bool
	// workers is the client worker count of a series whose load is fixed
	// rather than swept (the YCSB sweep's "1 worker" and "4 workers").
	workers int
}

// tableHead names one of the two tables of a load sweep.
type tableHead struct{ id, title string }

// loadSweep describes a multi-worker load experiment that the paper reports
// as a throughput figure and a latency figure: every deployment is measured
// under bench.Run at every point of the x-axis, and that single execution
// fills both tables.
type loadSweep struct {
	throughput, latency tableHead
	// latencyFirst orders the latency table before the throughput one, for
	// the one pair the paper numbers that way (Figures 13/14).
	latencyFirst bool
	xHeader      string // header of the x-axis column
	xFormat      string // fmt verb rendering an x value as its row label
	note         string
	deployments  []deployment
	xs           func(Options) []float64
	// open deploys and loads the database a deployment is measured on. It is
	// called once per deployment, or once per point when perPoint is set (the
	// scale-up sweep, whose x-axis is the size of the database).
	open     func(opts Options, d deployment, x float64) (*engine.Database, error)
	perPoint bool
	workers  func(d deployment, x float64) int
	// generator returns the request stream of one client worker.
	generator func(opts Options, d deployment, x float64, worker int) bench.Generator
	// predict, when set, adds a trailing cost-model column to the latency
	// table; it is evaluated on the first deployment's database.
	predictHeader string
	predict       func(opts Options, db *engine.Database, x float64) (time.Duration, error)
}

// measurement is one cell of a sweep: a deployment at one x.
type measurement struct {
	throughput float64
	latency    time.Duration
}

// workersFromX is the workers function of sweeps whose x-axis is the load.
func workersFromX(_ deployment, x float64) int { return int(x) }

func (s *loadSweep) experiment() Experiment {
	ids := []string{s.throughput.id, s.latency.id}
	if s.latencyFirst {
		ids[0], ids[1] = ids[1], ids[0]
	}
	return Experiment{IDs: ids, run: s.run}
}

// run executes the sweep once and returns its two tables in id order.
func (s *loadSweep) run(opts Options) ([]*Table, error) {
	xs := s.xs(opts)
	labels := make([]string, len(xs))
	for i, x := range xs {
		labels[i] = fmt.Sprintf(s.xFormat, x)
	}
	names := make([]string, len(s.deployments))
	columns := make([][]measurement, len(s.deployments))
	var predicted []time.Duration
	for i, d := range s.deployments {
		col, pred, err := s.column(opts, d, xs, i == 0 && s.predict != nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		names[i], columns[i] = d.name, col
		if pred != nil {
			predicted = pred
		}
	}
	throughput := seriesTable(s.throughput.id, s.throughput.title, s.xHeader, names, labels, s.note,
		func(row, col int) string { return formatThroughput(columns[col][row].throughput) })
	latency := seriesTable(s.latency.id, s.latency.title, s.xHeader, names, labels, s.note,
		func(row, col int) string { return formatDuration(columns[col][row].latency) })
	if predicted != nil {
		latency.Header = append(latency.Header, s.predictHeader)
		for i := range latency.Rows {
			latency.Rows[i] = append(latency.Rows[i], formatDuration(predicted[i]))
		}
	}
	if s.latencyFirst {
		return []*Table{latency, throughput}, nil
	}
	return []*Table{throughput, latency}, nil
}

// column measures one deployment along the whole x-axis.
func (s *loadSweep) column(opts Options, d deployment, xs []float64, predict bool) (col []measurement, pred []time.Duration, err error) {
	var db *engine.Database
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	for _, x := range xs {
		if db != nil && s.perPoint {
			db.Close()
			db = nil
		}
		if db == nil {
			if db, err = s.open(opts, d, x); err != nil {
				return nil, nil, err
			}
		}
		tp, lat, err := runLoad(db, opts, s.workers(d, x), func(worker int) bench.Generator {
			return s.generator(opts, d, x, worker)
		})
		if err != nil {
			return nil, nil, err
		}
		col = append(col, measurement{throughput: tp, latency: lat})
		if predict {
			p, err := s.predict(opts, db, x)
			if err != nil {
				return nil, nil, err
			}
			pred = append(pred, p)
		}
	}
	return col, pred, nil
}

// runLoad drives db with the given number of client workers under the paper's
// epoch-based methodology and returns the mean throughput and latency.
func runLoad(db *engine.Database, opts Options, workers int, newGenerator func(worker int) bench.Generator) (float64, time.Duration, error) {
	result, err := bench.Run(db, bench.Options{
		Workers:       workers,
		Epochs:        opts.epochs(),
		EpochDuration: opts.epochDuration(),
		Warmup:        50 * time.Millisecond,
	}, newGenerator)
	if err != nil {
		return 0, 0, err
	}
	tp, _ := result.Throughput()
	lat, _ := result.Latency()
	return tp, lat, nil
}

// seriesTable lays out a table whose first column is the x-axis and whose
// other columns are one series each. Measurements are taken series by series
// (one database per series) while the paper's tables read x by x; cell maps
// between the two.
func seriesTable(id, title, xHeader string, series, labels []string, note string, cell func(row, col int) string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{xHeader}, series...),
		Notes:  []string{note},
	}
	for r, label := range labels {
		row := []string{label}
		for c := range series {
			row = append(row, cell(r, c))
		}
		t.AddRow(row...)
	}
	return t
}
