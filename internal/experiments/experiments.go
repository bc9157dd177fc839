// Package experiments reproduces the tables and figures of the paper's
// evaluation (§4 and Appendices B–G). Each experiment deploys the relevant
// workload under the relevant database architecture(s), drives it with the
// measurement harness of package bench, and returns printable tables whose
// rows correspond to the series the paper plots. The load experiments that the
// paper reports as a throughput figure and a latency figure are loadSweep
// definitions: one execution yields both tables.
//
// Experiments accept Options; the zero value produces a quick run sized for
// test suites and CI, while Full enlarges sweeps and epochs for report-quality
// numbers. Every number is on the modeled profile: the substrate is the
// virtual-core simulation of package vclock, so absolute magnitudes differ
// from the paper and only the shapes are comparable. The repository's
// real-profile instrument is `go run ./benchmark` (README "Benchmarks").
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"reactdb/internal/vclock"
)

// Options control the size of an experiment run.
type Options struct {
	// Full enlarges sweeps (more sizes, more workers, more epochs) to mirror
	// the paper's configurations as closely as the host allows.
	Full bool
	// Epochs and EpochDuration override the measurement methodology defaults
	// (quick: 3 × 150ms, full: 10 × 500ms).
	Epochs        int
	EpochDuration time.Duration
}

func (o Options) epochs() int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	if o.Full {
		return 10
	}
	return 3
}

func (o Options) epochDuration() time.Duration {
	if o.EpochDuration > 0 {
		return o.EpochDuration
	}
	if o.Full {
		return 500 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// commCosts are the cost parameters for the single-worker latency-control
// experiments (§4.2, Appendices B and C): communication costs only, no
// per-transaction processing or affinity modeling, preserving the Cr > Cs
// asymmetry the paper reports.
func (o Options) commCosts() vclock.Costs {
	return vclock.Costs{Send: 40 * time.Microsecond, Receive: 80 * time.Microsecond}
}

// loadCosts are the cost parameters for the multi-worker load experiments
// (§4.3, Appendices D–F): communication, affinity-miss and per-transaction
// processing costs.
func (o Options) loadCosts() vclock.Costs { return vclock.DefaultExperimentCosts() }

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table as text.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// ProfileNote is carried by every table an Experiment returns, so that no
// number printed by this package can be read as a real-profile measurement.
const ProfileNote = "profile: modeled (vclock costs, MemStorage, no fsync)"

// Experiment is one execution that yields the paper tables named by IDs.
type Experiment struct {
	// IDs are the figure or table numbers this experiment owns, in paper
	// order: two for a load sweep (throughput and latency), one otherwise.
	IDs []string
	run func(Options) ([]*Table, error)
}

// Run executes the experiment once and returns one table per owned id.
func (e Experiment) Run(opts Options) ([]*Table, error) {
	tables, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", strings.Join(e.IDs, "/"), err)
	}
	for _, t := range tables {
		t.Notes = append(t.Notes, ProfileNote)
	}
	return tables, nil
}

// single adapts a one-table experiment to the registry.
func single(id string, run func(Options) (*Table, error)) Experiment {
	return Experiment{IDs: []string{id}, run: func(opts Options) ([]*Table, error) {
		t, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}}
}

// registry lists the experiments in paper order; every table id has exactly
// one owner, so a figure and its twin are never run twice.
var registry = []Experiment{
	single("fig5", Fig5),
	single("fig6", Fig6),
	tpccLoad.experiment(),
	newOrderDelay.experiment(),
	single("fig11", Fig11),
	single("fig12", Fig12),
	ycsbSkew.experiment(),
	crossReactor.experiment(),
	scaleUp.experiment(),
	single("fig19", Fig19),
	single("tab1", Tab1),
	single("affinity", Affinity),
	single("overhead", Overhead),
}

// Registry returns every experiment of the paper's evaluation, in paper order.
func Registry() []Experiment { return registry }

// IDs returns all table ids in paper order.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.IDs...)
	}
	return ids
}

// Lookup returns the experiment that owns the given table id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		for _, owned := range e.IDs {
			if owned == id {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// formatDuration renders a duration in milliseconds with fixed precision, the
// unit the paper's latency figures use.
func formatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// formatThroughput renders transactions per second.
func formatThroughput(tps float64) string { return fmt.Sprintf("%.0f", tps) }

// formatPercent renders a ratio as a percentage.
func formatPercent(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
