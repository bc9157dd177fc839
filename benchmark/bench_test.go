package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/workload/smallbank"
)

// reactorsOf lists every reactor an operation touches.
func reactorsOf(o op) []string {
	if o.kind == opTransfer {
		return []string{o.args[0].(string), o.args[1].(string)}
	}
	return []string{o.reactor}
}

func TestStreamsRepeatAndStayApart(t *testing.T) {
	const customers, ring = 2000, 256
	names := reactorNames(customers)
	for _, w := range workloads {
		a := opStreams(w, 7, customers, ring, names)
		b := opStreams(w, 7, customers, ring, names)
		c := opStreams(w, 8, customers, ring, names)
		if len(a) != w.slots() {
			t.Fatalf("%s: %d streams for %d slots", w.name, len(a), w.slots())
		}
		owner := map[string]int{}
		for s := range a {
			if streamDigest(a[s]) != streamDigest(b[s]) {
				t.Errorf("%s slot %d: the same seed gave different streams", w.name, s)
			}
			if streamDigest(a[s]) == streamDigest(c[s]) {
				t.Errorf("%s slot %d: seeds 7 and 8 gave the same stream", w.name, s)
			}
			for _, o := range a[s] {
				for _, r := range reactorsOf(o) {
					if prev, seen := owner[r]; seen && prev != s {
						t.Fatalf("%s: %s is used by slots %d and %d", w.name, r, prev, s)
					}
					owner[r] = s
				}
			}
		}
	}
}

func TestTransfersSpanBothContainers(t *testing.T) {
	const customers = 2000
	w, err := workloadNamed("xfer-2pc")
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(smallbank.NewDefinition(customers), realConfig(w, customers, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ring := range opStreams(w, 3, customers, 256, reactorNames(customers)) {
		for _, o := range ring {
			src, _ := db.ContainerIndexOf(o.args[0].(string))
			dst, _ := db.ContainerIndexOf(o.args[1].(string))
			if src != 0 || dst != 1 {
				t.Fatalf("transfer %v runs from container %d to %d, want 0 to 1", o.args, src, dst)
			}
		}
	}
}

// TestGateRejectsWrongTotal drives real deposits and shows that the
// correctness gate accepts the true ledger and refuses one that is off by a
// single deposit, in either direction.
func TestGateRejectsWrongTotal(t *testing.T) {
	cfg := shortConfig()
	w, err := workloadNamed("write-wire")
	if err != nil {
		t.Fatal(err)
	}
	w.recoverCheck = false // keep the fleet open across the three checks
	f, err := buildFleet(w, cfg.customers, t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	l := newLoad(f, opStreams(w, 1, cfg.customers, cfg.ringLen, reactorNames(cfg.customers)))
	l.phase(0, 1, 100*time.Millisecond, nil, 0)
	if l.failed() != 0 || l.deposits() == 0 {
		t.Fatalf("load: %d deposits, %d failed", l.deposits(), l.failed())
	}
	want := ledger{initial: float64(cfg.customers) * 2 * initialBalance, deposits: l.deposits()}
	if _, _, err := verify(f, want); err != nil {
		t.Fatalf("true ledger refused: %v", err)
	}
	for _, off := range []int64{-1, 1} {
		wrong := want
		wrong.deposits += off
		if _, _, err := verify(f, wrong); err == nil || !strings.Contains(err.Error(), "correctness") {
			t.Errorf("ledger off by %d deposit accepted (err = %v)", off, err)
		}
	}
}

// checkMetrics holds a result against the declaration in BENCHMARK.json:
// exactly the declared names, each finite and in the declared unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
	}
	seen := map[string]bool{}
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s: %s declared twice", what, d.Name)
		}
		seen[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is declared but not reported", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s reported in %q, declared in %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", what, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload at the short sizes, and one of them traced,
// so that the ordinary test run keeps the harness compiling and working
// against the internal APIs it times.
func TestSmoke(t *testing.T) {
	decl, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig()
	cfg.seed, cfg.baseDir = 1, t.TempDir()
	for _, w := range workloads {
		res, det, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || det.OpsFailed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.name, res.Metrics, decl.EndToEnd)
		for _, m := range decl.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want above zero", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var shape map[string]json.RawMessage
		if err := json.Unmarshal(b, &shape); err != nil || len(shape) != 4 {
			t.Errorf("%s: result line has %d keys (err %v), want correct, attempted, failed, metrics", w.name, len(shape), err)
		}
	}

	w, err := workloadNamed("repl-mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg.traceFile = filepath.Join(cfg.baseDir, "spans.jsonl")
	res, det, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("traced %s: %v", w.name, err)
	}
	if res.Failed != 0 {
		t.Errorf("traced %s: %d operations failed", w.name, res.Failed)
	}
	checkMetrics(t, "traced "+w.name, res.Metrics, decl.PerLayer)
	if res.Metrics["engine.abort_ratio"].Value != 0 {
		t.Errorf("engine.abort_ratio = %v, want 0", res.Metrics["engine.abort_ratio"].Value)
	}

	file, err := os.Open(det.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var spans []span
	names := map[string]int{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, s)
		names[s.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.ID < 1 || s.ID > len(spans) || s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID {
			t.Fatalf("span %+v: parent does not exist", s)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	for _, name := range []string{"run", "setup.build", "engine.open", "engine.load", "engine.checkpoint",
		"engine.replica_bootstrap", "epoch", "client.op", "probe.server.stats_rtt_p50_us", "iteration"} {
		if names[name] == 0 {
			t.Errorf("span file holds no %q span", name)
		}
	}
}
