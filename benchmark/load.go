package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/server"
)

// maxLagRecords is the freshness bound of replica reads.
const maxLagRecords = 4096

// slot is one closed-loop client: it sends its next operation only after the
// previous one completed. Several slots share a connection; each is a
// goroutine blocked in Conn.Execute.
type slot struct {
	ops  []op
	prim *server.Conn
	repl *server.Conn
	next int // position in ops, carried across phases

	// lat holds one latency sample (ns) per successful operation, in
	// completion order. It is allocated before a phase starts; samples beyond
	// its capacity are dropped, not grown into, so that the timed region
	// allocates nothing here.
	lat      []uint32
	done     atomic.Int64 // successful operations this phase
	failed   atomic.Int64 // errors and wrong results, whole run
	deposits atomic.Int64 // acknowledged deposits, whole run

	// spans holds (start, duration) of operations completed while tracing was
	// on, up to its capacity.
	spans []opSpan
}

type opSpan struct {
	start time.Time
	d     time.Duration
	seq   int
}

// issue sends one operation and reports whether it succeeded with the right
// result. Balances start at twice the initial balance and only deposits
// change them, so a read of an untouched customer must return exactly that.
func (s *slot) issue(o *op) bool {
	var res any
	var err error
	if o.onReplica {
		res, err = s.repl.ExecuteFresh(maxLagRecords, o.reactor, o.proc, o.args...)
	} else {
		res, err = s.prim.Execute(o.reactor, o.proc, o.args...)
	}
	if err != nil {
		return false
	}
	if o.kind == opBalance {
		b, ok := res.(float64)
		return ok && b >= 2*initialBalance
	}
	return true
}

func (s *slot) run(stop, tracing *atomic.Bool) {
	for !stop.Load() {
		o := &s.ops[s.next%len(s.ops)]
		s.next++
		start := time.Now()
		ok := s.issue(o)
		d := time.Since(start)
		if !ok {
			s.failed.Add(1)
			continue
		}
		if o.kind == opDeposit {
			s.deposits.Add(1)
		}
		n := s.done.Load()
		if int(n) < len(s.lat) {
			s.lat[n] = uint32(min(d, time.Duration(1<<32-1)))
		}
		if tracing.Load() && len(s.spans) < cap(s.spans) {
			s.spans = append(s.spans, opSpan{start: start, d: d, seq: s.next})
		}
		s.done.Add(1) // publishes lat[n] to the coordinator
	}
}

// load drives all slots of a fleet.
type load struct {
	slots   []*slot
	tracing atomic.Bool
}

func newLoad(f *fleet, streams [][]op) *load {
	l := &load{}
	for i, ops := range streams {
		s := &slot{ops: ops, prim: f.prim[i/f.w.inflight]}
		if f.repl != nil {
			s.repl = f.repl[i/f.w.inflight]
		}
		l.slots = append(l.slots, s)
	}
	return l
}

func (l *load) failed() (n int64) {
	for _, s := range l.slots {
		n += s.failed.Load()
	}
	return n
}

func (l *load) deposits() (n int64) {
	for _, s := range l.slots {
		n += s.deposits.Load()
	}
	return n
}

// done is the number of operations that succeeded in the current phase.
func (l *load) done() (n int64) {
	for _, s := range l.slots {
		n += s.done.Load()
	}
	return n
}

// epoch is what the coordinator saw between two boundaries.
type epoch struct {
	begin   time.Time
	seconds float64
	ops     int64
	traced  bool
	from    []int64 // per slot, index of the first sample
	to      []int64 // per slot, index after the last sample
}

func (e epoch) opsPerSecond() float64 { return float64(e.ops) / e.seconds }

// phase runs every slot for lead + n epochs of epochLen and returns what each
// epoch completed. All in-flight operations have drained when it returns.
// Tracing is on in the epochs traced marks, if any; samplesPerSlot sizes the
// latency buffers, zero keeps no samples.
func (l *load) phase(lead time.Duration, n int, epochLen time.Duration, traced []bool, samplesPerSlot int) []epoch {
	for _, s := range l.slots {
		s.done.Store(0)
		s.lat = make([]uint32, samplesPerSlot)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, s := range l.slots {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			s.run(&stop, &l.tracing)
		}(s)
	}
	time.Sleep(lead)
	snapshot := func() []int64 {
		at := make([]int64, len(l.slots))
		for i, s := range l.slots {
			at[i] = s.done.Load()
		}
		return at
	}
	out := make([]epoch, n)
	for i := range out {
		l.tracing.Store(traced != nil && traced[i])
		begin, from := time.Now(), snapshot()
		time.Sleep(epochLen)
		to := snapshot()
		e := epoch{begin: begin, seconds: time.Since(begin).Seconds(), from: from, to: to, traced: l.tracing.Load()}
		for j := range to {
			e.ops += to[j] - from[j]
		}
		out[i] = e
	}
	l.tracing.Store(false)
	stop.Store(true)
	wg.Wait()
	return out
}

// samples returns the epochs' latency samples, sorted, in scratch.
func (l *load) samples(scratch []uint32, epochs ...epoch) []uint32 {
	scratch = scratch[:0]
	for _, e := range epochs {
		for i, s := range l.slots {
			from, to := min(e.from[i], int64(len(s.lat))), min(e.to[i], int64(len(s.lat)))
			scratch = append(scratch, s.lat[from:to]...)
		}
	}
	slices.Sort(scratch)
	return scratch
}

// percentileUs reads the q-quantile of sorted nanosecond samples, in µs.
func percentileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
