package engine

import (
	"errors"
	"sync"
	"time"

	"reactdb/internal/stats"
)

// ErrOverloaded is returned by Execute under the fail-fast admission policy
// when the target executor has no in-flight token left. Clients should shed
// load or retry after backing off.
var ErrOverloaded = errors.New("engine: executor admission tokens exhausted")

// errDatabaseClosed is returned when a request arrives after Close.
var errDatabaseClosed = errors.New("engine: database closed")

// requestQueue is the FIFO of (sub-)transaction requests awaiting an
// executor. Admission control lives in the executor's admissionGate (in-flight
// tokens), not here: by the time a root task reaches the queue it already
// holds a token, so the ring only stores and orders work.
//
// The FIFO is a circular buffer: head/count index into a fixed backing array,
// so steady-state enqueue/dequeue churn allocates nothing. It has exactly one
// consumer — the owning executor's run loop — woken through the capacity-1
// wake channel. The buffer starts large enough for the admission limit and
// doubles only in the rare case that token-exempt sub-transactions outgrow
// it.
type requestQueue struct {
	mu     sync.Mutex
	buf    []*task
	head   int
	count  int
	closed bool
	// wake signals the owning run loop that work arrived or the queue closed.
	// Capacity 1: a notification is never lost, spurious wakes are cheap.
	wake chan struct{}
}

func newRequestQueue(limit int) *requestQueue {
	capacity := 16
	for capacity < limit+1 {
		capacity <<= 1
	}
	return &requestQueue{buf: make([]*task, capacity), wake: make(chan struct{}, 1)}
}

// notify wakes the queue's consumer (non-blocking; the channel holds at most
// one pending wake).
func (q *requestQueue) notify() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// enqueue appends a task and returns the queue depth observed just before the
// append. The task's enqueuedAt is stamped here, after any admission wait, so
// wait-time stats measure in-queue scheduling delay only.
func (q *requestQueue) enqueue(t *task) (int, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, errDatabaseClosed
	}
	depth := q.count
	t.enqueuedAt = time.Now()
	q.push(t)
	q.mu.Unlock()
	q.notify()
	return depth, nil
}

// push appends t to the ring, growing the backing array if sub-transaction
// bypass filled it. The caller holds q.mu.
func (q *requestQueue) push(t *task) {
	if q.count == len(q.buf) {
		grown := make([]*task, 2*len(q.buf))
		n := copy(grown, q.buf[q.head:])
		copy(grown[n:], q.buf[:q.head])
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = t
	q.count++
}

// tryDequeue removes the oldest task without blocking.
func (q *requestQueue) tryDequeue() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return nil, false
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return t, true
}

// depth returns the number of waiting requests.
func (q *requestQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// drained reports closed-and-empty, the run loop's exit condition.
func (q *requestQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && q.count == 0
}

// close marks the queue closed and wakes the consumer; pending items are
// still drained by the run loop before it exits.
func (q *requestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notify()
}

// runLoop is the executor's scheduler goroutine: it takes the next request
// from its queue in FIFO order, waits for the executor's virtual core, and
// starts the request on its own goroutine with core ownership transferred.
// The request goroutine releases the core when it finishes — or, under
// cooperative multitasking, while it awaits a remote future — which unblocks
// this loop for the next request.
func (e *Executor) runLoop() {
	defer close(e.loopDone)
	for {
		t := e.nextTask()
		if t == nil {
			return
		}
		acquiredAt := e.acquire()
		e.waitHist.ObserveDuration(acquiredAt.Sub(t.enqueuedAt))
		go e.container.db.runTask(t, t.newSession(coreSession{exec: e, acquiredAt: acquiredAt, held: true}))
	}
}

// nextTask returns the oldest waiting request, nil once the queue is closed
// and drained, and otherwise waits on the queue's wake channel: an enqueue
// or close that lands after the empty check has already left a wake there,
// so nothing is lost.
func (e *Executor) nextTask() *task {
	for {
		if t, ok := e.queue.tryDequeue(); ok {
			return t
		}
		if e.queue.drained() {
			return nil
		}
		<-e.queue.wake
	}
}

// submit places a task on the executor's request queue, recording queue-depth
// and admission statistics. Root tasks must first win an in-flight token from
// the executor's admission gate — the token is held across cooperative yields
// and released only when the transaction completes, aborts, or panics, so the
// gate's limit bounds total in-flight work, not just the waiting queue.
func (e *Executor) submit(t *task) error {
	if t.isRoot {
		if err := e.gate.acquire(e.container.db.cfg.Admission); err != nil {
			if errors.Is(err, ErrOverloaded) {
				e.rejected.Add(1)
			}
			return err
		}
		t.gate = e.gate
	}
	depth, err := e.queue.enqueue(t)
	if err != nil {
		// The queue closed between admission and enqueue (shutdown race); give
		// the token back so Close's drain accounting stays exact.
		t.releaseToken()
		return err
	}
	e.depthHist.Observe(float64(depth))
	e.enqueued.Add(1)
	return nil
}

// QueueStats is a snapshot of one executor's scheduler instrumentation.
type QueueStats struct {
	Container int
	Executor  int
	// Enqueued counts requests accepted onto the queue; Rejected counts root
	// transactions refused with ErrOverloaded under fail-fast admission.
	Enqueued int64
	Rejected int64
	// Depth is the instantaneous number of waiting requests.
	Depth int
	// InFlight is the number of admission tokens currently held: root
	// transactions admitted to this executor and not yet completed (waiting,
	// running, or cooperatively yielded), out of Config.QueueDepth.
	InFlight int
	// AffinityMisses counts requests whose reactor was last processed by a
	// different executor of the container (each charged Costs.AffinityMiss).
	AffinityMisses int64
	// Wait is the distribution of scheduling delay (enqueue to core acquired),
	// in nanoseconds.
	Wait stats.HistogramSnapshot
	// DepthSeen is the distribution of queue depth observed at enqueue time.
	DepthSeen stats.HistogramSnapshot
}

// QueueStats returns the scheduler statistics of this executor.
func (e *Executor) QueueStats() QueueStats {
	return QueueStats{
		Container:      e.container.id,
		Executor:       e.id,
		Enqueued:       e.enqueued.Load(),
		Rejected:       e.rejected.Load(),
		Depth:          e.queue.depth(),
		InFlight:       e.gate.inFlight(),
		AffinityMisses: e.misses.Load(),
		Wait:           e.waitHist.Snapshot(),
		DepthSeen:      e.depthHist.Snapshot(),
	}
}

// QueueStats returns the scheduler statistics of every executor, flattened
// across containers.
func (db *Database) QueueStats() []QueueStats {
	var out []QueueStats
	for _, c := range db.containers {
		for _, e := range c.executors {
			out = append(out, e.QueueStats())
		}
	}
	return out
}
