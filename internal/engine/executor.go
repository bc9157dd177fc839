package engine

import (
	"sync/atomic"
	"time"

	"reactdb/internal/stats"
	"reactdb/internal/vclock"
)

// Executor is a transaction executor: the unit of compute inside a container
// (paper §3.1). Each executor owns one virtual core, a request queue drained
// by a run-loop goroutine and an admission gate of in-flight tokens: root
// transactions admitted to the gate are started in FIFO order, one
// core-holder at a time, and a request that blocks on a remote
// sub-transaction releases the core so queued work can proceed (cooperative
// multitasking, §3.2.3) while keeping its token.
type Executor struct {
	container *Container
	id        int
	core      *vclock.Core

	// request-queue scheduler
	queue    *requestQueue
	gate     *admissionGate
	loopDone chan struct{}

	// instrumentation
	busy      atomic.Int64 // accumulated nanoseconds the core was held
	processed atomic.Int64 // number of (sub-)transaction requests processed
	started   time.Time
	enqueued  atomic.Int64
	rejected  atomic.Int64
	misses    atomic.Int64     // affinity misses charged at chargeEntry
	waitHist  *stats.Histogram // scheduling delay: enqueue -> core acquired
	depthHist *stats.Histogram // queue depth observed at enqueue
}

// newExecutor builds an executor and starts its run loop.
func newExecutor(c *Container, id int) *Executor {
	depth := c.db.cfg.QueueDepth
	e := &Executor{
		container: c,
		id:        id,
		core:      vclock.NewCore(),
		queue:     newRequestQueue(depth),
		gate:      newAdmissionGate(depth),
		loopDone:  make(chan struct{}),
		started:   time.Now(),
		waitHist:  stats.NewHistogram(stats.DurationBounds()),
		depthHist: stats.NewHistogram(stats.DepthBounds()),
	}
	go e.runLoop()
	return e
}

// shutdown closes the admission gate and request queue, then waits for the
// run loop to drain. Gate first: a root blocked at admission must fail with
// errDatabaseClosed rather than win a token from a closing executor.
func (e *Executor) shutdown() {
	e.gate.close()
	e.queue.close()
	<-e.loopDone
}

// ID returns the executor's index within its container.
func (e *Executor) ID() int { return e.id }

// Container returns the container owning this executor.
func (e *Executor) Container() *Container { return e.container }

// Processed returns the number of (sub-)transaction requests this executor has
// executed.
func (e *Executor) Processed() int64 { return e.processed.Load() }

// Utilization returns the fraction of wall-clock time since creation during
// which the executor's virtual core was busy. It corresponds to the
// per-executor hardware utilization the paper reports (§4.3.1).
func (e *Executor) Utilization() float64 {
	elapsed := time.Since(e.started)
	if elapsed <= 0 {
		return 0
	}
	u := float64(e.busy.Load()) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// ResetStats restarts the utilization measurement window and clears the
// scheduler instrumentation (queue-wait and queue-depth histograms, admission
// and affinity-miss counters).
func (e *Executor) ResetStats() {
	e.busy.Store(0)
	e.processed.Store(0)
	e.started = time.Now()
	e.enqueued.Store(0)
	e.rejected.Store(0)
	e.misses.Store(0)
	e.waitHist.Reset()
	e.depthHist.Reset()
}

// acquire takes the executor's core and returns the acquisition time used to
// account busy time.
func (e *Executor) acquire() time.Time {
	e.core.Acquire()
	return time.Now()
}

// release frees the core, charging the busy time since acquiredAt.
func (e *Executor) release(acquiredAt time.Time) {
	e.busy.Add(int64(time.Since(acquiredAt)))
	e.core.Release()
}

// chargeEntry applies the per-request costs charged when the executor starts
// processing a (sub-)transaction for a reactor: the fixed processing cost and
// the affinity-miss penalty charged when the reactor was last processed by a
// different executor of the same container (its working set has to move to
// this executor's cache, the effect affinity routing avoids). Round-robin
// routing pays it whenever consecutive requests for a reactor land on
// different executors. The caller must hold the core.
func (e *Executor) chargeEntry(reactor string) {
	costs := e.container.db.cfg.Costs
	miss := e.container.noteExecutorFor(reactor, e.id)
	if miss {
		e.misses.Add(1)
		if costs.AffinityMiss > 0 {
			vclock.Spin(costs.AffinityMiss)
		}
	}
	if costs.Processing > 0 {
		vclock.Spin(costs.Processing)
	}
	e.processed.Add(1)
}
