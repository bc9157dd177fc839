package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"reactdb/internal/workload/smallbank"
)

// config is how much one run measures. fullConfig is what BENCHMARK.json
// gates; shortConfig is the smoke test's.
type config struct {
	customers  int
	builds     int // full set-ups per run; setup_s is their median
	ringLen    int // pre-generated operations per slot, cycled
	warmup     time.Duration
	lead       time.Duration // load runs this long before the first epoch
	epochs     int
	epochLen   time.Duration
	probeIters int
	seed       int64
	baseDir    string // scratch files live and die under here
	traceFile  string // write spans here and report per-layer metrics; empty: end-to-end metrics
}

func fullConfig(seconds int) config {
	return config{
		customers: 100000, builds: 3, ringLen: 4096,
		warmup: 2 * time.Second, lead: 200 * time.Millisecond,
		epochs: 8, epochLen: time.Duration(seconds) * time.Second / 8,
		probeIters: 400,
	}
}

func shortConfig() config {
	return config{
		customers: 2000, builds: 1, ringLen: 256,
		warmup: 100 * time.Millisecond, lead: 20 * time.Millisecond,
		epochs: 2, epochLen: 200 * time.Millisecond,
		probeIters: 200,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// details is printed before the result: what was run, where, and how many
// samples stand behind the numbers.
type details struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Traced        bool             `json:"traced"`
	Env           environment      `json:"env"`
	OpsAttempted  int64            `json:"ops_attempted"`
	OpsFailed     int64            `json:"ops_failed"`
	Samples       map[string]int64 `json:"samples"`
	EpochOpsPerS  []float64        `json:"epoch_ops_s"`
	EpochP50Us    []float64        `json:"epoch_p50_us,omitempty"`
	SetupSeconds  []float64        `json:"setup_seconds"`
	StreamDigests []string         `json:"stream_digests"`
	TraceFile     string           `json:"trace_file,omitempty"`
}

// ledger is what the money in the database must add up to.
type ledger struct {
	initial  float64
	deposits int64 // acknowledged, each worth 1.0
	failed   int64 // operations with an unknown outcome, each worth at most 1.0
}

func (l ledger) check(where string, total float64) error {
	lo := l.initial + float64(l.deposits)
	if hi := lo + float64(l.failed); total < lo || total > hi {
		return fmt.Errorf("correctness: %s holds %.1f, want %.1f to %.1f (%d deposits acknowledged)", where, total, lo, hi, l.deposits)
	}
	return nil
}

// verify is the correctness gate. The load has drained. Money is conserved
// on the primary; a replica, once caught up, holds the same total; and where
// the workload wrote, the total survives a restart from the files alone.
// With recovery checked it closes the fleet and returns the restart's cost.
func verify(f *fleet, want ledger) (recoverTime time.Duration, recovered int, err error) {
	total, err := smallbank.TotalBalance(f.db, f.customers)
	if err != nil {
		return 0, 0, err
	}
	if err := want.check("primary", total); err != nil {
		return 0, 0, err
	}
	if f.rep != nil {
		if err := f.rep.WaitCaughtUp(30 * time.Second); err != nil {
			return 0, 0, fmt.Errorf("correctness: replica: %w", err)
		}
		rt, err := smallbank.TotalBalance(f.rep.Database(), f.customers)
		if err != nil {
			return 0, 0, err
		}
		if rt != total {
			return 0, 0, fmt.Errorf("correctness: replica holds %.1f, primary %.1f", rt, total)
		}
	}
	if !f.w.recoverCheck {
		return 0, 0, nil
	}
	db, recoverTime, recovered, err := f.reopen()
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	rt, err := smallbank.TotalBalance(db, f.customers)
	if err != nil {
		return 0, 0, err
	}
	if rt != total {
		return 0, 0, fmt.Errorf("correctness: recovered database holds %.1f, before restart %.1f", rt, total)
	}
	return recoverTime, recovered, nil
}

// runWorkload builds the fleet, drives the load, checks the outcome and
// returns the metrics: the end-to-end ones, or with cfg.traceFile set the
// per-layer ones.
func runWorkload(w workload, cfg config) (*result, *details, error) {
	dir, err := os.MkdirTemp(cfg.baseDir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	traced := cfg.traceFile != ""
	var rec *recorder
	if traced {
		rec = newRecorder()
		cfg.builds = 1
	}
	root := rec.begin("run", 0)
	names := reactorNames(cfg.customers)
	streams := opStreams(w, cfg.seed, cfg.customers, cfg.ringLen, names)
	det := &details{Workload: w.name, Seed: cfg.seed, Traced: traced, Env: readEnvironment(dir), Samples: map[string]int64{}}
	for _, s := range streams {
		det.StreamDigests = append(det.StreamDigests, fmt.Sprintf("%016x", streamDigest(s)))
	}

	// Set up several times and keep the last fleet: single set-ups of
	// identical code took 0.97 to 1.46 s here, medians of three 1.04 to 1.20 s.
	var f *fleet
	for i := 0; i < cfg.builds; i++ {
		if f != nil {
			f.close()
			if err := os.RemoveAll(f.dir); err != nil {
				return nil, nil, err
			}
			f = nil
			runtime.GC()
		}
		start := time.Now()
		if f, err = buildFleet(w, cfg.customers, filepath.Join(dir, fmt.Sprintf("fleet%d", i)), rec, root); err != nil {
			return nil, nil, err
		}
		det.SetupSeconds = append(det.SetupSeconds, time.Since(start).Seconds())
	}
	defer f.close()

	l := newLoad(f, streams)
	warm := l.phase(0, 1, cfg.warmup, nil, 0)[0]
	// Room for twice the warm-up's rate, so that the timed epochs never grow a
	// buffer; a sample that still does not fit is dropped and counted.
	measured := cfg.lead + time.Duration(cfg.epochs)*cfg.epochLen
	perSlot := int(2*warm.opsPerSecond()*measured.Seconds())/len(l.slots) + 1024

	var tracedEpochs []bool
	var lags *lagSampler
	if traced {
		// Interleave untraced and traced epochs (off on on off ...), so that
		// the two throughputs that give the tracing overhead come from the
		// same fleet and a drift over the run weighs on both alike.
		tracedEpochs = make([]bool, cfg.epochs)
		for i := range tracedEpochs {
			tracedEpochs[i] = i%4 == 1 || i%4 == 2
		}
		for _, s := range l.slots {
			s.spans = make([]opSpan, 0, 65536/len(l.slots))
		}
		f.db.ResetExecutorStats()
		lags = startLagSampler(f.rep)
	}
	scratch := make([]uint32, 0, perSlot*len(l.slots))
	runtime.GC()
	before := readLayerStats(f.db)
	epochs := l.phase(cfg.lead, cfg.epochs, cfg.epochLen, tracedEpochs, perSlot)
	after := readLayerStats(f.db)
	ops := l.done()

	var kept int64
	for _, s := range l.slots {
		kept += min(s.done.Load(), int64(len(s.lat)))
	}
	det.Samples["latency"] = kept
	det.Samples["latency_dropped"] = ops - kept
	det.Samples["epochs"] = int64(len(epochs))
	for _, e := range epochs {
		det.EpochOpsPerS = append(det.EpochOpsPerS, e.opsPerSecond())
	}

	out := map[string]metric{}
	p := &prober{rec: rec, parent: root, iters: cfg.probeIters, out: out}
	deposits := l.deposits()
	if !traced {
		endToEnd(out, det, l, epochs, scratch, float64(after.mem.Mallocs-before.mem.Mallocs)/float64(ops))
	} else {
		lags.finish(p)
		layerMetrics(p, before, after, meanUtilization(f.db), ops)
		recordLoadSpans(rec, root, epochs, l.slots)
		var on, off []float64
		for _, e := range epochs {
			if e.traced {
				on = append(on, e.opsPerSecond())
			} else {
				off = append(off, e.opsPerSecond())
			}
		}
		p.set("trace.overhead_pct", 100*(1-ratio(median(on), median(off))), "%")
		all := l.samples(scratch, epochs...)
		p.set("client.lat_p99_us", percentileUs(all, 0.99), "us")
		p.set("client.lat_p999_us", percentileUs(all, 0.999), "us")
		det.Samples["latency_pooled"] = int64(len(all))
		for _, name := range []string{"open", "load", "checkpoint", "replica_bootstrap"} {
			p.set("engine."+name+"_s", rec.duration("engine."+name).Seconds(), "s")
		}
		made, err := p.fleetProbes(f, cfg.seed, names)
		if err != nil {
			return nil, nil, err
		}
		deposits += made
		if err := p.standaloneProbes(cfg.customers, dir); err != nil {
			return nil, nil, err
		}
	}

	failed := l.failed()
	want := ledger{initial: float64(cfg.customers) * 2 * initialBalance, deposits: deposits, failed: failed}
	recoverTime, recovered, err := verify(f, want)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		p.set("engine.recover_s", recoverTime.Seconds(), "s")
		p.set("engine.recover_records", float64(recovered), "count")
		rec.end(root)
		if err := rec.writeFile(cfg.traceFile); err != nil {
			return nil, nil, err
		}
		det.TraceFile = cfg.traceFile
		det.Samples["spans"] = int64(len(rec.spans))
	}

	attempted := warm.ops + ops + failed
	det.OpsAttempted, det.OpsFailed = attempted, failed
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: out}, det, nil
}

// endToEnd fills in the six gated metrics of an untraced run. The load has
// drained and the fleet is still open.
func endToEnd(out map[string]metric, det *details, l *load, epochs []epoch, scratch []uint32, allocsPerOp float64) {
	var tput, p50, p90 []float64
	for _, e := range epochs {
		sorted := l.samples(scratch, e)
		tput = append(tput, e.opsPerSecond())
		p50 = append(p50, percentileUs(sorted, 0.50))
		p90 = append(p90, percentileUs(sorted, 0.90))
	}
	det.EpochP50Us = p50
	out["throughput_ops_s"] = metric{median(tput), "1/s"}
	out["lat_p50_us"] = metric{median(p50), "us"}
	out["lat_p90_us"] = metric{median(p90), "us"}
	out["allocs_per_op"] = metric{allocsPerOp, "count"}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["live_heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	out["setup_s"] = metric{median(det.SetupSeconds), "s"}
}

// recordLoadSpans turns what the slots kept while tracing was on into
// epoch > client.op spans; an operation belongs to the epoch it completed in.
func recordLoadSpans(rec *recorder, root int, epochs []epoch, slots []*slot) {
	ids := make([]int, len(epochs))
	for i, e := range epochs {
		ids[i] = rec.add("epoch", root, 0, e.begin, time.Duration(e.seconds*float64(time.Second)))
	}
	for si, s := range slots {
		for _, sp := range s.spans {
			parent := ids[0]
			for i, e := range epochs {
				if !e.begin.After(sp.start.Add(sp.d)) {
					parent = ids[i]
				}
			}
			rec.add("client.op", parent, sp.seq*len(slots)+si+1, sp.start, sp.d)
		}
	}
}
