package engine

import "sync"

// admissionGate is one executor's in-flight token pool. A root transaction
// acquires a token when it is admitted (before joining the request queue),
// holds it across cooperative yields — the request still occupies memory and
// will return to this executor's core — and releases it when the transaction
// completes, aborts, or its procedure panics. The pool therefore bounds the
// executor's total in-flight root transactions (waiting + started), which is
// what makes QueueDepth a real memory and tail-latency bound: the previous
// scheduler bounded only the waiting queue, so cooperatively-yielded requests
// accumulated without limit.
//
// Sub-transaction requests never take tokens: they belong to a root that was
// already admitted somewhere, and refusing them mid-transaction could abort
// or deadlock work the system committed to running.
//
// The limit is Config.QueueDepth, fixed at construction.
type admissionGate struct {
	mu       sync.Mutex
	freed    *sync.Cond
	inflight int
	limit    int
	closed   bool
}

func newAdmissionGate(limit int) *admissionGate {
	g := &admissionGate{limit: limit}
	g.freed = sync.NewCond(&g.mu)
	return g
}

// acquire takes one token, applying the admission policy when the pool is
// exhausted: block until a token frees up, or fail fast with ErrOverloaded.
func (g *admissionGate) acquire(admission AdmissionPolicy) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.closed {
			return errDatabaseClosed
		}
		if g.inflight < g.limit {
			g.inflight++
			return nil
		}
		if admission == AdmissionFail {
			return ErrOverloaded
		}
		g.freed.Wait()
	}
}

// release returns one token and wakes a blocked admission.
func (g *admissionGate) release() {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.mu.Unlock()
	g.freed.Signal()
}

// inFlight returns the number of tokens held, for stats export.
func (g *admissionGate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// close fails current and future blocked admissions with errDatabaseClosed.
// Tokens already held stay valid until their transactions finish.
func (g *admissionGate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.freed.Broadcast()
}
