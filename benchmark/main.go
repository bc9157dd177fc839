// Command benchmark is the repository's end-to-end benchmark: five workloads
// driven over the wire protocol against a real-profile fleet (zero modeled
// costs, WAL on files, real fsync), judged from what a client observes. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload read-wire -seed 1            # end-to-end metrics
//	go run ./benchmark -workload all -seed 1                  # all five
//	go run ./benchmark -workload write-wire -seed 1 -trace t.jsonl  # per-layer metrics + spans
//	go run ./benchmark -selfcheck                             # every workload twice, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// environment is recorded with every run, so that numbers from different
// hosts are never compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Storage    string `json:"storage"`
	FS         string `json:"fs"`
	Profile    string `json:"profile"`
}

func readEnvironment(dir string) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Storage: "file", FS: fsType(dir), Profile: "real",
	}
}

func main() {
	name := flag.String("workload", "all", "workload to run: read-wire, read-sat, write-wire, xfer-2pc, repl-mixed or all")
	seed := flag.Int64("seed", 1, "seed of the operation streams")
	seconds := flag.Int("seconds", 12, "measured seconds per run, split into 8 epochs")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1 or a file name: traced run, per-layer metrics, spans written to the file")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice with the same seed and compare against the bounds in BENCHMARK.json")
	short := flag.Bool("short", false, "the smoke test's sizes: 2 000 customers, one build, 2 epochs of 200 ms")
	dir := flag.String("dir", ".bench_tmp", "scratch directory for WAL files and span files; created if missing")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *selfcheck, *short, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace string, selfcheck, short bool, dir string) error {
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("GOMAXPROCS is %d; the load needs 2 to keep both client connections busy", runtime.GOMAXPROCS(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if fs := fsType(dir); fs == "tmpfs" {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %s is on tmpfs, where fsync costs nothing; wal.fsync_p50_us and the write workloads' latencies say little about a disk\n", dir)
	}
	cfg := fullConfig(seconds)
	if short {
		cfg = shortConfig()
	}
	cfg.seed, cfg.baseDir = seed, dir

	if selfcheck {
		return selfCheck(cfg)
	}
	selected := workloads
	if name != "all" {
		w, err := workloadNamed(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		cfg.traceFile = ""
		switch trace {
		case "0", "":
		case "1":
			cfg.traceFile = filepath.Join(dir, "trace-"+w.name+".jsonl")
		default:
			cfg.traceFile = trace
			if len(selected) > 1 {
				cfg.traceFile = trace + "." + w.name
			}
		}
		res, det, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printJSON(det); err != nil {
			return err
		}
		if err := printJSON(res); err != nil {
			return err
		}
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// declared is the part of BENCHMARK.json the harness reads back.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// selfCheck runs every workload twice back to back with the same seed and
// fails if any end-to-end metric got worse, from the first run to the second,
// by more than its bound: the rule a later change is held to, applied to no
// change at all.
func selfCheck(cfg config) error {
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	over := 0
	for _, w := range workloads {
		var runs [2]*result
		for i := range runs {
			res, _, err := runWorkload(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.Failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			runs[i] = res
		}
		for _, m := range decl.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OVER"
				over++
			}
			fmt.Printf("%-11s %-17s %12.3f %12.3f %-5s worse by %+6.1f%%  bound %2.0f%%  %s\n",
				w.name, m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) got worse by more than their bound", over)
	}
	fmt.Println("selfcheck: no end-to-end metric of any workload got worse by more than its bound")
	return nil
}
