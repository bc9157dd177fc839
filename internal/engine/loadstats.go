package engine

import "time"

// ExecutorLoad is the compact per-executor load signal the wire front-end
// piggybacks on responses (see internal/server): instantaneous queue depth
// and in-flight admission tokens against the gate's limit, plus the
// queue-wait p99 over the window since the previous ExecutorLoads call. It is
// a strict subset of QueueStats, chosen so a server can refresh it frequently
// without paying for full lifetime-histogram snapshots.
type ExecutorLoad struct {
	Container int
	Executor  int
	// Depth is the number of waiting requests; InFlight the admission tokens
	// currently held; EffectiveDepth the gate's token limit, which is
	// Config.QueueDepth.
	Depth          int
	InFlight       int
	EffectiveDepth int
	// Rejected counts root transactions refused with ErrOverloaded so far.
	Rejected int64
	// WaitP99 is the p99 scheduling delay (enqueue to core acquired) over the
	// window that closed at this call: the interval since the previous call.
	// A cumulative distribution would dilute a fresh overload under old fast
	// observations, and would keep charging a long-past burst forever. An
	// executor that started no request in the window reports zero.
	WaitP99 time.Duration
}

// ExecutorLoads returns the per-executor load signals, flattened across
// containers in (container, executor) order. Each call closes every
// executor's queue-wait window and opens the next, so a caller that polls at
// a fixed interval reads the p99 of that interval; concurrent callers are
// serialised and split the windows between them.
func (db *Database) ExecutorLoads() []ExecutorLoad {
	db.loadsMu.Lock()
	defer db.loadsMu.Unlock()
	var out []ExecutorLoad
	for _, c := range db.containers {
		for _, e := range c.executors {
			l := ExecutorLoad{
				Container: c.id,
				Executor:  e.id,
				Depth:     e.queue.depth(),
				Rejected:  e.rejected.Load(),
				WaitP99:   time.Duration(e.waitWindow.Rotate().Quantile(0.99)),
			}
			l.InFlight, l.EffectiveDepth = e.gate.snapshot()
			out = append(out, l)
		}
	}
	return out
}
