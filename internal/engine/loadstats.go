package engine

import "time"

// ExecutorLoad is the compact per-executor load signal the wire front-end
// piggybacks on responses (see internal/server): instantaneous queue depth
// and in-flight admission tokens against the gate's current limit, plus the
// queue-wait p99 over the still-open control window. It is a strict subset of
// QueueStats, chosen so a server can refresh it frequently without paying for
// full lifetime-histogram snapshots.
type ExecutorLoad struct {
	Container int
	Executor  int
	// Depth is the number of waiting requests; InFlight the admission tokens
	// currently held; EffectiveDepth the gate's current token limit (moved by
	// the adaptive depth controller when it is enabled).
	Depth          int
	InFlight       int
	EffectiveDepth int
	// Rejected counts root transactions refused with ErrOverloaded so far.
	Rejected int64
	// WaitP99 is the p99 scheduling delay (enqueue to core acquired) over the
	// current observation window, not the run's lifetime — a cumulative
	// distribution would dilute a fresh overload under old fast observations.
	WaitP99 time.Duration
}

// ExecutorLoads returns the per-executor load signals, flattened across
// containers in (container, executor) order.
func (db *Database) ExecutorLoads() []ExecutorLoad {
	var out []ExecutorLoad
	for _, c := range db.containers {
		for _, e := range c.executors {
			l := ExecutorLoad{
				Container: c.id,
				Executor:  e.id,
				Depth:     e.queue.depth(),
				Rejected:  e.rejected.Load(),
				WaitP99:   time.Duration(e.waitWindow.Current().Quantile(0.99)),
			}
			l.InFlight, l.EffectiveDepth, _ = e.gate.snapshot()
			out = append(out, l)
		}
	}
	return out
}
