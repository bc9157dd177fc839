// Package vclock implements the virtual-core layer that substitutes for the
// paper's multi-core hardware (the modeled profile of README "Benchmarks").
// The paper evaluates ReactDB on machines with 8 and 32 hardware threads and
// pins each transaction executor to its own core; this reproduction may run on
// a host with a single physical CPU, so processing costs are modeled in
// virtual time:
//
//   - every transaction executor owns a Core, a token that serializes
//     "CPU-bound" work on that executor;
//   - Core.Work sleeps while holding the token, so simulated computation
//     occupies exactly one virtual core without consuming the host CPU;
//   - while a request blocks on a remote sub-transaction it releases the
//     token, modeling the cooperative multitasking of §3.2.3 (a blocked
//     thread hands the core to another thread draining the request queue);
//   - cross-container communication costs Cs (send) and Cr (receive), which
//     on the paper's hardware stem from cross-core thread switching, are
//     injected as configurable delays.
//
// With this layer the asynchronicity, queueing and affinity effects the paper
// measures are expressed in wall-clock time even on a single-core host;
// absolute magnitudes differ (sleep granularity is ~0.1 ms).
package vclock

import (
	"runtime"
	"time"
)

// Core is a virtual CPU core: a binary token serializing processing on one
// transaction executor.
type Core struct {
	sem chan struct{}
}

// NewCore returns an idle virtual core.
func NewCore() *Core {
	return &Core{sem: make(chan struct{}, 1)}
}

// Acquire takes the core, blocking until it is free.
func (c *Core) Acquire() { c.sem <- struct{}{} }

// Release frees the core.
func (c *Core) Release() { <-c.sem }

// TryAcquire takes the core if it is free and reports whether it did.
func (c *Core) TryAcquire() bool {
	select {
	case c.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Busy reports whether the core is currently held.
func (c *Core) Busy() bool { return len(c.sem) == 1 }

// yieldUntil waits for the deadline by repeatedly yielding the processor to
// other goroutines. Unlike time.Sleep it has sub-microsecond resolution (the
// host's sleep granularity can be ~1ms), and unlike a hard busy-spin it lets
// work belonging to other virtual cores progress on a single-CPU host, so
// delays on different executors genuinely overlap in wall-clock time.
func yieldUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Work simulates d of CPU-bound processing on the calling goroutine's virtual
// core. The caller must already hold the core; the wall-clock duration is d
// regardless of how many other virtual cores are working concurrently, which
// is exactly the multi-core overlap the paper's hardware provides. Long
// durations mostly sleep to spare the host CPU; the tail is yielded away for
// accuracy.
func Work(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
	}
	yieldUntil(deadline)
}

// Spin waits for d with microsecond resolution while holding the calling
// goroutine's virtual core. The engine uses it for the small communication and
// bookkeeping costs (Cs, Cr, affinity misses, per-request processing) charged
// on a caller's core.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	yieldUntil(time.Now().Add(d))
}

// Costs are the communication and locality cost parameters of a deployment.
// They correspond to the cost-model parameters of the paper's Figure 3 (Cs,
// Cr) and to the cache-affinity penalty its shared-everything experiments
// expose implicitly.
type Costs struct {
	// Send is Cs(k, k'): the cost charged on the caller's executor to send a
	// sub-transaction invocation to a reactor in a different container.
	Send time.Duration
	// Receive is Cr(k', k): the cost charged on the caller's executor to
	// receive a sub-transaction result from a different container. The paper
	// observes Cr > Cs because the receive path involves cross-core thread
	// switching.
	Receive time.Duration
	// AffinityMiss is the penalty charged when an executor processes a
	// transaction for a reactor it did not process last, modeling the cache
	// locality an affinity router preserves and a round-robin router destroys.
	AffinityMiss time.Duration
	// Processing is a fixed per-(sub-)transaction processing cost added on the
	// executing reactor's core, modeling the per-transaction CPU work of the
	// paper's hardware when the real Go logic is too cheap to register.
	Processing time.Duration
	// LogWrite is the modeled cost of making one commit durable (a log-device
	// write). Without group commit it is charged on the committing executor's
	// core once per transaction; with group commit the container's group
	// committer charges it once per batch, which is the amortization real
	// group commit buys. Zero disables the cost (the seed's behaviour: no
	// durability layer).
	LogWrite time.Duration
}

// DefaultExperimentCosts are the cost parameters used by the experiment
// drivers. They keep the Cr > Cs asymmetry the paper reports and are large
// enough to be resolvable with sleep-based virtual time.
func DefaultExperimentCosts() Costs {
	return Costs{
		Send:         40 * time.Microsecond,
		Receive:      80 * time.Microsecond,
		AffinityMiss: 60 * time.Microsecond,
		Processing:   50 * time.Microsecond,
	}
}
