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
// multitasking, §3.2.3) while keeping its token. When
// work stealing is enabled (Config.Steal) an executor whose queue runs empty
// — or pathologically shallow next to a sibling's — takes non-affine root
// tasks from the deepest sibling queue of its container.
type Executor struct {
	container *Container
	id        int
	core      *vclock.Core

	// request-queue scheduler
	queue    *requestQueue
	gate     *admissionGate
	loopDone chan struct{}
	parked   atomic.Bool // run loop is waiting on queue.wake (steal wake target)

	// instrumentation
	busy       atomic.Int64 // accumulated nanoseconds the core was held
	processed  atomic.Int64 // number of (sub-)transaction requests processed
	started    time.Time
	enqueued   atomic.Int64
	rejected   atomic.Int64
	steals     atomic.Int64             // tasks taken from sibling queues
	stolen     atomic.Int64             // tasks siblings took from this queue
	misses     atomic.Int64             // affinity misses charged at chargeEntry
	waitHist   *stats.Histogram         // scheduling delay: enqueue -> core acquired
	waitWindow *stats.WindowedHistogram // same delay, windowed for the depth controller
	depthHist  *stats.Histogram         // queue depth observed at enqueue
}

func newExecutor(c *Container, id int) *Executor {
	depth := c.db.cfg.QueueDepth
	if a := c.db.cfg.AdaptiveDepth; a.Enabled {
		// Start wide open; the controller shrinks toward the floor only when
		// measured queue-wait says the backlog is hurting.
		depth = a.Ceiling
	}
	return &Executor{
		container:  c,
		id:         id,
		core:       vclock.NewCore(),
		queue:      newRequestQueue(depth),
		gate:       newAdmissionGate(depth),
		loopDone:   make(chan struct{}),
		started:    time.Now(),
		waitHist:   stats.NewHistogram(stats.DurationBounds()),
		waitWindow: stats.NewWindowedHistogram(stats.DurationBounds()),
		depthHist:  stats.NewHistogram(stats.DepthBounds()),
	}
}

// start spawns the run loop. It is separate from construction because a
// stealing run loop scans its container's executor slice and sibling queues:
// every executor of the container must exist before any loop runs.
func (e *Executor) start() { go e.runLoop() }

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
// and steal counters). The admission gate's effective depth is left where the
// controller put it.
func (e *Executor) ResetStats() {
	e.busy.Store(0)
	e.processed.Store(0)
	e.started = time.Now()
	e.enqueued.Store(0)
	e.rejected.Store(0)
	e.steals.Store(0)
	e.stolen.Store(0)
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
// this executor's cache, the effect affinity routing avoids). A stolen task
// pays this penalty through the same model — lastExecutor points at the
// victim — which is what keeps the steal-on/steal-off ablation honest.
// The caller must hold the core.
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
