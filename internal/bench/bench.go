// Package bench is the load driver used by the experiment harness: it applies
// the paper's measurement methodology (§4.1.2) — client workers with affinity
// to reactors, epoch-based measurement, averages and standard deviations
// across epochs — to a running ReactDB instance.
package bench

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/stats"
)

// Request is one transaction invocation produced by a workload generator.
type Request struct {
	Reactor   string
	Procedure string
	Args      []any
}

// Generator produces the next transaction request for one client worker.
// Implementations are typically closures over a workload-specific generator
// seeded per worker.
type Generator func() Request

// Options control a measurement run.
type Options struct {
	// Workers is the number of client worker goroutines ("client worker
	// threads" in the paper). Each gets its own Generator.
	Workers int
	// Epochs is the number of measurement epochs (the paper uses 50).
	Epochs int
	// EpochDuration is the length of one epoch.
	EpochDuration time.Duration
	// Warmup is run before measurement starts and is not recorded.
	Warmup time.Duration
}

// DefaultOptions returns a small configuration suitable for test runs.
func DefaultOptions(workers int) Options {
	return Options{Workers: workers, Epochs: 5, EpochDuration: 100 * time.Millisecond, Warmup: 50 * time.Millisecond}
}

// Run drives the database with opts.Workers concurrent workers, each issuing
// requests from its generator, and returns per-epoch throughput and latency.
// Latency includes input generation, as in the paper ("all measurements
// include the time to generate transaction inputs"). Serialization conflicts
// and user aborts count as aborted transactions; any other error stops the
// run and is returned.
func Run(db *engine.Database, opts Options, newGenerator func(worker int) Generator) (stats.RunResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.EpochDuration <= 0 {
		opts.EpochDuration = 100 * time.Millisecond
	}

	var (
		collecting atomic.Bool
		mu         sync.Mutex
		lat        = stats.NewLatencyRecorder(1024)
		committed  int
		aborted    int
		rejected   int
		runErr     error
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < opts.Workers; w++ {
		gen := newGenerator(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				req := gen()
				_, err := db.Execute(req.Reactor, req.Procedure, req.Args...)
				elapsed := time.Since(start)
				if err != nil && !errors.Is(err, engine.ErrConflict) && !errors.Is(err, engine.ErrOverloaded) &&
					!core.IsUserAbort(err) && !errors.Is(err, core.ErrDangerousStructure) {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					return
				}
				if !collecting.Load() {
					continue
				}
				mu.Lock()
				switch {
				case err == nil:
					committed++
					lat.Record(elapsed)
				case errors.Is(err, engine.ErrOverloaded):
					// Shed by admission control before consuming executor
					// resources: accounted separately from transactional
					// aborts.
					rejected++
				default:
					aborted++
				}
				mu.Unlock()
			}
		}()
	}

	if opts.Warmup > 0 {
		time.Sleep(opts.Warmup)
	}
	db.ResetExecutorStats()
	var run stats.RunResult
	collecting.Store(true)
	for e := 0; e < opts.Epochs; e++ {
		mu.Lock()
		lat.Reset()
		committed, aborted, rejected = 0, 0, 0
		start := time.Now()
		mu.Unlock()
		time.Sleep(opts.EpochDuration)
		mu.Lock()
		// The epoch lasted as long as the sleep really took, which under a
		// saturating load is longer than asked for.
		elapsed := time.Since(start)
		epoch := stats.EpochResult{
			Duration:   elapsed,
			Committed:  committed,
			Aborted:    aborted,
			Rejected:   rejected,
			MeanLat:    lat.Mean(),
			Throughput: float64(committed) / elapsed.Seconds(),
		}
		mu.Unlock()
		run.AddEpoch(epoch)
	}
	collecting.Store(false)
	close(stop)
	wg.Wait()

	mu.Lock()
	err := runErr
	mu.Unlock()
	return run, err
}

// ProfileSummary aggregates the cost-model profiles of a sequence of
// transactions executed by a single worker (used by the latency-control
// experiments of §4.2, which deliberately avoid interference).
type ProfileSummary struct {
	Count       int
	Aborts      int
	MeanTotal   time.Duration
	MeanSync    time.Duration
	MeanCs      time.Duration
	MeanCr      time.Duration
	MeanBlocked time.Duration
	MeanCommit  time.Duration
}

// MeasureProfiles runs n transactions sequentially from a single client and
// averages their latency profiles. Aborted transactions (conflicts or user
// aborts) are excluded from the averages but counted.
func MeasureProfiles(db *engine.Database, n int, gen Generator) (ProfileSummary, error) {
	var s ProfileSummary
	var totals struct {
		total, sync, cs, cr, blocked, commit time.Duration
	}
	for i := 0; i < n; i++ {
		req := gen()
		start := time.Now()
		_, profile, err := db.ExecuteProfiled(req.Reactor, req.Procedure, req.Args...)
		elapsed := time.Since(start)
		if err != nil {
			if errors.Is(err, engine.ErrConflict) || core.IsUserAbort(err) || errors.Is(err, core.ErrDangerousStructure) {
				s.Aborts++
				continue
			}
			return s, err
		}
		s.Count++
		totals.total += elapsed
		sync := profile.Total - profile.BlockedWait - profile.Cs - profile.Cr - profile.Commit
		if sync < 0 {
			sync = 0
		}
		totals.sync += sync
		totals.cs += profile.Cs
		totals.cr += profile.Cr
		totals.blocked += profile.BlockedWait
		totals.commit += profile.Commit
	}
	if s.Count > 0 {
		n := time.Duration(s.Count)
		s.MeanTotal = totals.total / n
		s.MeanSync = totals.sync / n
		s.MeanCs = totals.cs / n
		s.MeanCr = totals.cr / n
		s.MeanBlocked = totals.blocked / n
		s.MeanCommit = totals.commit / n
	}
	return s, nil
}
