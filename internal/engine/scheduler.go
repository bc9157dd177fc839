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
// wake channel, plus sibling thieves that remove stealable root tasks from
// the tail under the same mutex (stealTail). The buffer starts large enough
// for the admission ceiling and doubles only in the rare case that
// token-exempt sub-transactions outgrow it.
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

// stealTail removes and returns the newest task iff it is stealable: a root
// task not pinned by an explicit affinity contract. The check inspects only
// the tail element, keeping the steal O(1) and allocation-free; a stealable
// task buried under a sub-transaction request is simply not stolen this round.
// Stealing from the tail takes the request that would otherwise wait longest,
// while the victim's own FIFO order over the remaining work is untouched.
func (q *requestQueue) stealTail() *task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return nil
	}
	i := (q.head + q.count - 1) % len(q.buf)
	t := q.buf[i]
	if !t.isRoot || t.affine {
		return nil
	}
	q.buf[i] = nil
	q.count--
	return t
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

// runLoop is the executor's scheduler goroutine: it takes the next request —
// from its own queue in FIFO order, or stolen from the deepest sibling when
// its own queue is empty or pathologically shallower — waits for the
// executor's virtual core, and starts the request on its own goroutine with
// core ownership transferred. The request goroutine releases the core when it
// finishes — or, under cooperative multitasking, while it awaits a remote
// future — which unblocks this loop for the next request.
func (e *Executor) runLoop() {
	defer close(e.loopDone)
	lastStolen := false
	for {
		t := e.nextTask(lastStolen)
		if t == nil {
			return
		}
		lastStolen = t.executor != e
		if t.executor != e {
			// Stolen: re-home the task before it runs. The working set of its
			// reactor moves with it, which the affinity-miss cost model
			// charges at chargeEntry the same way any routing miss is charged
			// — steals buy queue balance at an honest locality price.
			t.executor.stolen.Add(1)
			t.executor = e
			e.steals.Add(1)
		}
		acquiredAt := e.acquire()
		wait := acquiredAt.Sub(t.enqueuedAt)
		e.waitHist.ObserveDuration(wait)
		e.waitWindow.Observe(float64(wait))
		go e.container.db.runTask(t, t.newSession(coreSession{exec: e, acquiredAt: acquiredAt, held: true}))
	}
}

// nextTask returns the next request for this executor, blocking until one is
// available, and nil once the executor's queue is closed and drained. With
// stealing enabled the priority order is: rebalance-steal when the deepest
// sibling is Steal.Ratio times deeper than our backlog, then our own FIFO,
// then empty-queue steal; an idle executor parks on its wake channel and is
// woken by its own enqueues, queue closure, or a sibling whose stealable
// backlog built up (see Executor.submit). lastStolen suppresses the
// rebalance-steal right after a steal, so the thief's own queue is served at
// least every other slot — without it a persistent sibling imbalance could
// starve a lone task waiting here indefinitely.
func (e *Executor) nextTask(lastStolen bool) *task {
	steal := e.container.db.cfg.Steal.Enabled
	for {
		if t := e.pollTask(steal && !lastStolen); t != nil {
			return t
		}
		if e.queue.drained() {
			return nil
		}
		e.parked.Store(true)
		// Re-check after declaring ourselves parked: a producer that missed
		// the parked flag has already enqueued, so this poll sees its work;
		// a producer that saw the flag will send a wake. Either way nothing
		// is lost.
		if t := e.pollTask(steal && !lastStolen); t != nil {
			e.parked.Store(false)
			return t
		}
		if e.queue.drained() {
			e.parked.Store(false)
			return nil
		}
		<-e.queue.wake
		e.parked.Store(false)
	}
}

// pollTask makes one non-blocking attempt to obtain work. rebalance gates the
// steal-ahead-of-own-FIFO path; the empty-queue steal is always allowed when
// stealing is on, since an empty queue has nothing to starve.
func (e *Executor) pollTask(rebalance bool) *task {
	steal := e.container.db.cfg.Steal.Enabled
	if rebalance {
		if own := e.queue.depth(); own > 0 {
			if v := e.stealVictim(own); v != nil {
				if t := v.queue.stealTail(); t != nil {
					return t
				}
			}
		}
	}
	if t, ok := e.queue.tryDequeue(); ok {
		return t
	}
	if steal {
		if v := e.stealVictim(0); v != nil {
			if t := v.queue.stealTail(); t != nil {
				return t
			}
		}
	}
	return nil
}

// stealVictim picks the deepest sibling queue worth stealing from, or nil.
// With own == 0 any sibling at or above Steal.MinVictimDepth qualifies; with
// a non-empty own queue the sibling must additionally be Steal.Ratio times
// deeper than ours, so balanced queues never trade work back and forth. The
// scan allocates nothing: it is part of the steal hot path.
func (e *Executor) stealVictim(own int) *Executor {
	cfg := &e.container.db.cfg
	need := cfg.Steal.MinVictimDepth
	if own > 0 && cfg.Steal.Ratio*own > need {
		need = cfg.Steal.Ratio * own
	}
	var victim *Executor
	deepest := need - 1
	for _, s := range e.container.executors {
		if s == e {
			continue
		}
		if d := s.queue.depth(); d > deepest {
			deepest = d
			victim = s
		}
	}
	return victim
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
	// A stealable backlog forming behind a busy executor is the signal an
	// idle sibling parks on: wake one. depth is the count before our push, so
	// depth >= 1 means at least two requests are now waiting here.
	if depth >= 1 && t.isRoot && !t.affine && e.container.db.cfg.Steal.Enabled {
		for _, s := range e.container.executors {
			if s != e && s.parked.Load() {
				s.queue.notify()
				break
			}
		}
	}
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
	// running, or cooperatively yielded). EffectiveDepth is the gate's
	// current token limit — equal to Config.QueueDepth under a static bound,
	// moved between the configured floor and ceiling by the adaptive depth
	// controller — and MinEffectiveDepth is the lowest limit the controller
	// ever set (the current limit may have grown back by snapshot time).
	InFlight          int
	EffectiveDepth    int
	MinEffectiveDepth int
	// Steals counts tasks this executor took from sibling queues; Stolen
	// counts tasks siblings took from this executor's queue.
	Steals int64
	Stolen int64
	// AffinityMisses counts requests whose reactor was last processed by a
	// different executor of the container (each charged Costs.AffinityMiss),
	// including misses induced by stealing.
	AffinityMisses int64
	// Wait is the distribution of scheduling delay (enqueue to core acquired),
	// in nanoseconds.
	Wait stats.HistogramSnapshot
	// DepthSeen is the distribution of queue depth observed at enqueue time.
	DepthSeen stats.HistogramSnapshot
}

// QueueStats returns the scheduler statistics of this executor.
func (e *Executor) QueueStats() QueueStats {
	s := QueueStats{
		Container:      e.container.id,
		Executor:       e.id,
		Enqueued:       e.enqueued.Load(),
		Rejected:       e.rejected.Load(),
		Depth:          e.queue.depth(),
		Steals:         e.steals.Load(),
		Stolen:         e.stolen.Load(),
		AffinityMisses: e.misses.Load(),
		Wait:           e.waitHist.Snapshot(),
		DepthSeen:      e.depthHist.Snapshot(),
	}
	s.InFlight, s.EffectiveDepth, s.MinEffectiveDepth = e.gate.snapshot()
	return s
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
