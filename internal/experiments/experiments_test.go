package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"reactdb/internal/bench"
	"reactdb/internal/engine"
	"reactdb/internal/workload/smallbank"
)

// fmtSscan parses a single float from a table cell.
func fmtSscan(s string, out *float64) (int, error) { return fmt.Sscan(s, out) }

// tinyOptions keeps experiment runs small enough for the unit test suite.
func tinyOptions() Options {
	return Options{Epochs: 2, EpochDuration: 60 * time.Millisecond}
}

// TestRegistryCoversAllExperimentIDs pins the registry to the paper's 18
// tables in paper order, each owned by exactly one experiment.
func TestRegistryCoversAllExperimentIDs(t *testing.T) {
	want := []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"tab1", "affinity", "overhead",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want paper order %v", got, want)
	}
	owners := map[string]int{}
	for _, e := range Registry() {
		if len(e.IDs) < 1 || len(e.IDs) > 2 {
			t.Fatalf("experiment owns %d ids: %v", len(e.IDs), e.IDs)
		}
		for _, id := range e.IDs {
			owners[id]++
		}
	}
	for _, id := range want {
		if owners[id] != 1 {
			t.Fatalf("%s is owned by %d experiments, want 1", id, owners[id])
		}
		if e, ok := Lookup(id); !ok || !slices.Contains(e.IDs, id) {
			t.Fatalf("Lookup(%s) = %v, %v", id, e.IDs, ok)
		}
	}
	if _, ok := Lookup("durability"); ok {
		t.Fatal("Lookup found an experiment that is not in the paper")
	}
}

// TestEveryExperimentRunsTiny runs every experiment of the registry in its
// smallest configuration and checks the shape of every table it owns.
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	opts := tinyOptions()
	// Rows per table: the length of the x-axis.
	wantRows := map[string]int{
		"fig5": 7, "fig6": 6, "fig11": 7, "fig12": 7, "fig19": 3,
		"tab1": 4, "affinity": 4, "overhead": 3,
	}
	for _, s := range []*loadSweep{tpccLoad, newOrderDelay, ycsbSkew, crossReactor, scaleUp} {
		wantRows[s.throughput.id] = len(s.xs(opts))
		wantRows[s.latency.id] = len(s.xs(opts))
	}
	// Leading columns that label the row instead of reporting a measurement.
	labelCols := map[string]int{"fig6": 2}
	for _, e := range Registry() {
		t.Run(strings.Join(e.IDs, "+"), func(t *testing.T) {
			tables, err := e.Run(opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(tables) != len(e.IDs) {
				t.Fatalf("got %d tables for ids %v", len(tables), e.IDs)
			}
			for i, tbl := range tables {
				if tbl.ID != e.IDs[i] {
					t.Fatalf("table %d has id %s, want %s", i, tbl.ID, e.IDs[i])
				}
				if len(tbl.Rows) != wantRows[tbl.ID] {
					t.Fatalf("%s has %d rows, want %d", tbl.ID, len(tbl.Rows), wantRows[tbl.ID])
				}
				if !slices.Contains(tbl.Notes, ProfileNote) {
					t.Fatalf("%s does not say which profile it ran on: %v", tbl.ID, tbl.Notes)
				}
				labels := labelCols[tbl.ID]
				if labels == 0 {
					labels = 1
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Fatalf("%s row %v has %d cells, header has %d", tbl.ID, row, len(row), len(tbl.Header))
					}
					for c, cell := range row[labels:] {
						if cell == "-" && tbl.ID == "tab1" {
							continue // no prediction for multi-worker rows
						}
						var v float64
						if _, err := fmtSscan(strings.TrimSuffix(cell, "%"), &v); err != nil {
							t.Fatalf("%s %q = %q does not parse: %v", tbl.ID, tbl.Header[labels+c], cell, err)
						}
						// fig6 reports components that are zero by construction
						// (a fully-sync transfer has no async execution).
						if v < 0 || (v == 0 && tbl.ID != "fig6") {
							t.Fatalf("%s %q = %q, want > 0", tbl.ID, tbl.Header[labels+c], cell)
						}
					}
				}
			}
		})
	}
}

// TestPairedFiguresRunOnce pins what makes a throughput/latency pair cost one
// run: a load sweep opens each deployment once and fills both tables from it.
func TestPairedFiguresRunOnce(t *testing.T) {
	const customers = 4
	opens := map[string]int{}
	sweep := &loadSweep{
		throughput: tableHead{"tp", "throughput"},
		latency:    tableHead{"lat", "latency"},
		xHeader:    "workers",
		xFormat:    "%.0f",
		note:       "a note",
		deployments: []deployment{
			{name: "shared-nothing", cfg: engine.NewSharedNothing},
			{name: "shared-everything", cfg: engine.NewSharedEverythingWithAffinity},
		},
		xs: func(Options) []float64 { return []float64{1, 2} },
		open: func(_ Options, d deployment, _ float64) (*engine.Database, error) {
			opens[d.name]++
			db, err := engine.Open(smallbank.NewDefinition(customers), d.cfg(2))
			if err != nil {
				return nil, err
			}
			return db, smallbank.Load(db, customers, 100, 100)
		},
		workers: workersFromX,
		generator: func(_ Options, _ deployment, _ float64, worker int) bench.Generator {
			return func() bench.Request {
				return bench.Request{Reactor: smallbank.ReactorName(worker), Procedure: smallbank.ProcBalance}
			}
		},
	}
	e := sweep.experiment()
	if !reflect.DeepEqual(e.IDs, []string{"tp", "lat"}) {
		t.Fatalf("sweep owns %v", e.IDs)
	}
	tables, err := e.Run(Options{Epochs: 1, EpochDuration: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(tables) != 2 || tables[0].ID != "tp" || tables[1].ID != "lat" {
		t.Fatalf("sweep returned %v", tables)
	}
	for _, tbl := range tables {
		wantHeader := []string{"workers", "shared-nothing", "shared-everything"}
		if !reflect.DeepEqual(tbl.Header, wantHeader) || len(tbl.Rows) != 2 ||
			tbl.Rows[0][0] != "1" || tbl.Rows[1][0] != "2" {
			t.Fatalf("%s has the wrong shape:\n%s", tbl.ID, tbl)
		}
	}
	for _, d := range sweep.deployments {
		if opens[d.name] != 1 {
			t.Fatalf("%s was opened %d times for two tables, want once", d.name, opens[d.name])
		}
	}
	sweep.perPoint = true
	if _, err := e.Run(Options{Epochs: 1, EpochDuration: 20 * time.Millisecond}); err != nil {
		t.Fatalf("Run per point: %v", err)
	}
	for _, d := range sweep.deployments {
		if opens[d.name] != 3 {
			t.Fatalf("%s: a per-point sweep of two points should reopen twice, saw %d opens in total", d.name, opens[d.name])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "fig0",
		Title:  "test table",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("300", "4")
	out := tbl.String()
	for _, want := range []string{"fig0", "test table", "a note", "300"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.epochs() != 3 || o.epochDuration() != 150*time.Millisecond {
		t.Fatalf("quick defaults wrong")
	}
	full := Options{Full: true}
	if full.epochs() != 10 || full.epochDuration() != 500*time.Millisecond {
		t.Fatalf("full defaults wrong")
	}
	if o.commCosts().Receive <= o.commCosts().Send {
		t.Fatalf("comm costs must preserve Cr > Cs")
	}
	if o.loadCosts().Processing <= 0 {
		t.Fatalf("load costs must include processing")
	}
	if o.profileCount() <= 0 || full.profileCount() <= o.profileCount() {
		t.Fatalf("profile counts wrong")
	}
	if len(o.tpccWorkerCounts()) >= len(full.tpccWorkerCounts()) {
		t.Fatalf("full worker sweep should be larger")
	}
	if len(o.ycsbSkews()) >= len(full.ycsbSkews()) {
		t.Fatalf("full skew sweep should be larger")
	}
}

func TestExpectedDistinctRemote(t *testing.T) {
	if got := expectedDistinctRemote(10, 3, 0); got != 0 {
		t.Fatalf("zero probability should give 0, got %d", got)
	}
	if got := expectedDistinctRemote(10, 3, 1.0); got < 2 || got > 3 {
		t.Fatalf("100%% cross with 3 candidates should approach 3, got %d", got)
	}
	if got := expectedDistinctRemote(10, 7, 0.01); got != 1 {
		t.Fatalf("1%% cross should still touch about one remote warehouse, got %d", got)
	}
}

// TestFig5QuickRunProducesOrderedLatencies runs the smallest latency-control
// experiment end to end and checks the headline shape: opt is not slower than
// fully-sync at the largest transaction size.
func TestFig5QuickRunProducesOrderedLatencies(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	tbl, err := Fig5(tinyOptions())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(tbl.Rows) != 7 || len(tbl.Header) != 5 {
		t.Fatalf("unexpected table shape: %+v", tbl)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	var fullySync, opt float64
	if _, err := fmtSscan(last[1], &fullySync); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := fmtSscan(last[4], &opt); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if opt > fullySync {
		t.Fatalf("opt (%v ms) should not be slower than fully-sync (%v ms) at size 7", opt, fullySync)
	}
}

// TestOverheadQuickRun exercises the containerization-overhead experiment.
func TestOverheadQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	tbl, err := Overhead(tinyOptions())
	if err != nil {
		t.Fatalf("Overhead: %v", err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tbl.Rows))
	}
}
