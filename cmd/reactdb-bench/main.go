// Command reactdb-bench regenerates the tables and figures of the paper's
// evaluation on the modeled profile (virtual-core costs, in-memory storage).
// Each experiment prints the rows/series the paper reports; a throughput
// figure and its latency twin come from one execution. README "Benchmarks"
// sets this tool next to the repository's real-profile benchmark,
// `go run ./benchmark`.
//
// Usage:
//
//	reactdb-bench -list
//	reactdb-bench -experiment fig5
//	reactdb-bench -all [-full]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"reactdb/internal/experiments"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiment ids and exit")
		experiment = flag.String("experiment", "", "run a single experiment (e.g. fig5, tab1)")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "use the full (paper-sized) sweeps instead of the quick ones")
	)
	flag.Parse()
	opts := experiments.Options{Full: *full}

	// run executes e once and prints the tables it owns, or only the one
	// named by only.
	run := func(e experiments.Experiment, only string) {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if only == "" || t.ID == only {
				t.Fprint(os.Stdout)
			}
		}
		fmt.Printf("  (completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *experiment != "":
		e, ok := experiments.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *experiment)
			os.Exit(1)
		}
		run(e, *experiment)
	case *all:
		for _, e := range experiments.Registry() {
			run(e, "")
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
