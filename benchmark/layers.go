package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/stats"
)

// layerStats is one reading of every exported counter the engine keeps. Two
// readings around the traced window, subtracted, say what each layer did for
// the window's operations.
type layerStats struct {
	at        time.Time
	queueWait stats.HistogramSnapshot
	batchSize stats.HistogramSnapshot
	fsyncLat  stats.HistogramSnapshot
	flushed   stats.HistogramSnapshot
	records   uint64 // 2PC records through the group committer
	walBytes  uint64
	fsyncs    uint64
	committed uint64
	aborted   uint64
	cpu       time.Duration
	mem       runtime.MemStats
}

func readLayerStats(db *engine.Database) *layerStats {
	s := &layerStats{at: time.Now(), cpu: processCPU()}
	var waits, sizes, lats, flushed []stats.HistogramSnapshot
	for _, q := range db.QueueStats() {
		waits = append(waits, q.Wait)
	}
	for _, g := range db.GroupCommitStats() {
		sizes = append(sizes, g.BatchSize)
		s.records += g.Records
	}
	for _, w := range db.WALStats() {
		lats = append(lats, w.FsyncLatency)
		flushed = append(flushed, w.BytesPerFlush)
		s.walBytes += w.AppendedBytes
		s.fsyncs += w.Fsyncs
	}
	s.queueWait = stats.MergeSnapshots(waits...)
	s.batchSize = stats.MergeSnapshots(sizes...)
	s.fsyncLat = stats.MergeSnapshots(lats...)
	s.flushed = stats.MergeSnapshots(flushed...)
	s.committed, s.aborted = db.Stats()
	runtime.ReadMemStats(&s.mem)
	return s
}

// histSub returns the observations b holds beyond a, both snapshots of one
// histogram.
func histSub(b, a stats.HistogramSnapshot) stats.HistogramSnapshot {
	d := stats.HistogramSnapshot{Bounds: b.Bounds, Counts: slices.Clone(b.Counts), Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range a.Counts {
		d.Counts[i] -= a.Counts[i]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns the difference of two readings into the per-layer
// metrics that come from counters. ops is what the clients completed between
// the readings.
func layerMetrics(p *prober, a, b *layerStats, util float64, ops int64) {
	seconds := b.at.Sub(a.at).Seconds()
	n := float64(ops)
	wait := histSub(b.queueWait, a.queueWait)
	p.set("engine.queue_wait_p50_us", wait.Quantile(0.50)/1e3, "us")
	p.set("engine.queue_wait_p99_us", wait.Quantile(0.99)/1e3, "us")
	p.set("engine.executor_util", util, "ratio")
	batches := histSub(b.batchSize, a.batchSize)
	p.set("engine.gc_batch_mean", batches.Mean(), "count")
	p.set("engine.gc_batches_per_s", ratio(float64(batches.Count), seconds), "1/s")
	p.set("engine.twopc_records_per_op", ratio(float64(b.records-a.records), n), "count")
	done := float64(b.committed-a.committed) + float64(b.aborted-a.aborted)
	p.set("engine.abort_ratio", ratio(float64(b.aborted-a.aborted), done), "ratio")
	p.set("wal.fsync_live_p50_us", histSub(b.fsyncLat, a.fsyncLat).Quantile(0.50)/1e3, "us")
	p.set("wal.bytes_per_op", ratio(float64(b.walBytes-a.walBytes), n), "bytes")
	p.set("wal.fsyncs_per_op", ratio(float64(b.fsyncs-a.fsyncs), n), "count")
	p.set("wal.bytes_per_fsync", histSub(b.flushed, a.flushed).Mean(), "bytes")
	p.set("client.cpu_us_per_op", ratio(float64((b.cpu-a.cpu).Microseconds()), n), "us")
	p.set("go.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count")
	p.set("go.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
}

// meanUtilization averages the executors' busy share since the last
// ResetExecutorStats.
func meanUtilization(db *engine.Database) float64 {
	var sum float64
	var n int
	for _, c := range db.ExecutorUtilization() {
		for _, u := range c {
			sum += u
			n++
		}
	}
	return ratio(sum, float64(n))
}

// lagSampler reads the replica's progress every 10 ms while the load runs.
type lagSampler struct {
	rep     *engine.Replica
	stop    chan struct{}
	wg      sync.WaitGroup
	lags    []float64
	rounds  uint64
	applied uint64
}

func startLagSampler(rep *engine.Replica) *lagSampler {
	s := &lagSampler{rep: rep, stop: make(chan struct{})}
	if rep == nil {
		return s
	}
	first := rep.Stats()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				last := rep.Stats()
				s.rounds, s.applied = last.Rounds-first.Rounds, last.Applied-first.Applied
				return
			case <-tick.C:
				var lag uint64
				for _, sh := range rep.Stats().Shards {
					lag = max(lag, sh.Lag)
				}
				s.lags = append(s.lags, float64(lag))
			}
		}
	}()
	return s
}

// finish stops sampling and reports; without a replica every value is zero.
func (s *lagSampler) finish(p *prober) {
	close(s.stop)
	s.wg.Wait()
	slices.Sort(s.lags)
	var p50, top float64
	if n := len(s.lags); n > 0 {
		p50, top = s.lags[n/2], s.lags[n-1]
	}
	p.set("engine.replica_lag_p50_records", p50, "count")
	p.set("engine.replica_lag_max_records", top, "count")
	p.set("engine.replica_records_per_round", ratio(float64(s.applied), float64(s.rounds)), "count")
}
