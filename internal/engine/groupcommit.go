package engine

import (
	"sync"
	"time"

	"reactdb/internal/stats"
)

// groupCommitter decides *when* the commit pipeline (Container.commitBatch)
// runs and over how many entries: it accumulates validated (prepared)
// single-container transactions with writes — plus the pre-built
// prepare/decision records of two-phase commits touching this container —
// and hands them to the pipeline together. The motivation is the classic
// one: the durable log write — a WAL append + fsync under DurabilityWAL — is
// paid once per batch instead of once per transaction, so under concurrent
// load commit cost amortizes across the batch. Prepared transactions hold
// their OCC locks while waiting, so the Window also bounds the extra conflict
// exposure group commit introduces.
type groupCommitter struct {
	container *Container
	window    time.Duration
	maxBatch  int

	// mu guards the accumulating batch and its generation. gen identifies
	// the batch currently accumulating; it bumps every time flush takes a
	// batch, so a window timer armed for an earlier batch can recognize
	// itself as stale and become a no-op instead of flushing a fresh batch
	// before its window elapsed. flushGen is the highest generation a timer
	// or full-batch signal has requested to flush.
	mu       sync.Mutex
	batch    []gcEntry
	gen      uint64
	flushGen uint64
	stopped  bool

	flushCh chan struct{}
	stopCh  chan struct{}
	done    chan struct{}

	batchSize *stats.Histogram
	// records counts pre-built records (2PC prepares and decisions) accepted
	// by this committer — the amortized participant logging, observable next
	// to the batch-size histogram. Guarded by mu.
	records uint64
}

func newGroupCommitter(c *Container) *groupCommitter {
	cfg := &c.db.cfg
	g := &groupCommitter{
		container: c,
		window:    cfg.GroupCommit.Window,
		maxBatch:  cfg.GroupCommit.MaxBatch,
		flushCh:   make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
		batchSize: stats.NewHistogram(stats.DepthBounds()),
	}
	go g.loop()
	return g
}

// enqueue adds an entry to the accumulating batch (see Container.submit),
// reporting false if the committer has been stopped. The first entry of a
// fresh batch arms a one-shot window timer, so an idle committer costs
// nothing.
func (g *groupCommitter) enqueue(e gcEntry) bool {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return false
	}
	g.batch = append(g.batch, e)
	g.records += uint64(len(e.recs))
	n := len(g.batch)
	gen := g.gen
	g.mu.Unlock()
	if n >= g.maxBatch {
		g.requestFlush(gen)
	} else if n == 1 {
		time.AfterFunc(g.window, func() { g.requestFlush(gen) })
	}
	return true
}

// requestFlush records that the batch of generation gen is due to flush and
// nudges the loop. A request for a generation that has already been taken by
// a flush is stale — the timer that fired belongs to a batch that is gone —
// and is dropped, protecting the currently accumulating batch's window.
func (g *groupCommitter) requestFlush(gen uint64) {
	g.mu.Lock()
	if g.stopped || gen < g.gen {
		g.mu.Unlock()
		return
	}
	if gen > g.flushGen {
		g.flushGen = gen
	}
	g.mu.Unlock()
	g.signalFlush()
}

// signalFlush nudges the loop; a nudge already pending absorbs the signal
// (the due generation is recorded in flushGen, not in the channel).
func (g *groupCommitter) signalFlush() {
	select {
	case g.flushCh <- struct{}{}:
	default:
	}
}

// loop flushes the accumulated batch whenever it fills up or its window
// timer fires, and drains any remainder on shutdown.
func (g *groupCommitter) loop() {
	defer close(g.done)
	for {
		select {
		case <-g.stopCh:
			for g.pending() > 0 {
				g.flush(true)
			}
			return
		case <-g.flushCh:
			g.flush(false)
		}
	}
}

// flush runs the commit pipeline over up to maxBatch accumulated entries.
// Anything beyond maxBatch stays queued: a further full batch flushes
// immediately, a partial remainder gets a fresh window timer. Unless forced
// (shutdown drain), a flush whose batch generation was never requested is a
// spurious wakeup and is skipped.
func (g *groupCommitter) flush(force bool) {
	g.mu.Lock()
	if !force && g.flushGen < g.gen {
		g.mu.Unlock()
		return
	}
	n := len(g.batch)
	if n > g.maxBatch {
		n = g.maxBatch
	}
	batch := g.batch[:n:n]
	g.batch = g.batch[n:]
	remainder := len(g.batch)
	if n > 0 {
		g.gen++
	}
	gen := g.gen
	g.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if remainder >= g.maxBatch {
		g.requestFlush(gen)
	} else if remainder > 0 {
		// The remainder's original window timer belongs to a flushed
		// generation; arm a fresh one for the new batch.
		time.AfterFunc(g.window, func() { g.requestFlush(gen) })
	}
	g.batchSize.Observe(float64(len(batch)))
	g.container.commitBatch(batch)
	// Zero the flushed slots so the shared backing array does not pin the
	// committed transactions' read/write sets until append reallocates.
	for i := range batch {
		batch[i] = gcEntry{}
	}
}

// pending returns the number of transactions awaiting a flush.
func (g *groupCommitter) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.batch)
}

// stop shuts the committer down after flushing pending work. The stopped
// flag is set under mu before stopCh closes, so every entry a concurrent
// submit managed to append is visible to the loop's final drain, and every
// later submit fails fast. stop is idempotent.
func (g *groupCommitter) stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		<-g.done
		return
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.stopCh)
	<-g.done
}

// GroupCommitStats is a snapshot of one container's group-commit activity.
type GroupCommitStats struct {
	Container int
	// Batches and Txns count flushed batches and the transactions committed
	// through them; Largest is the biggest batch seen. Read-only commits
	// bypass the committer and are not counted.
	Batches uint64
	Txns    uint64
	Largest uint64
	// Records counts pre-built 2PC records (participant prepares and
	// coordinator decisions) flushed through the committer, i.e. two-phase
	// commit log writes that amortized with the container's batches.
	Records uint64
	// BatchSize is the distribution of flushed batch sizes.
	BatchSize stats.HistogramSnapshot
}

// GroupCommitStats returns per-container group-commit statistics. Containers
// without group commit enabled report zeros (their batches of one are not
// group commits).
func (db *Database) GroupCommitStats() []GroupCommitStats {
	out := make([]GroupCommitStats, 0, len(db.containers))
	for _, c := range db.containers {
		s := GroupCommitStats{Container: c.id}
		if c.committer != nil {
			s.Batches, s.Txns, s.Largest = c.domain.GroupCommitStats()
			s.BatchSize = c.committer.batchSize.Snapshot()
			c.committer.mu.Lock()
			s.Records = c.committer.records
			c.committer.mu.Unlock()
		}
		out = append(out, s)
	}
	return out
}
