package engine

import (
	"sync"
	"time"

	"reactdb/internal/stats"
)

// commitQueue is a container's one road to its commit pipeline
// (Container.commitBatch): every commit that writes enters it — a prepared
// transaction, or a two-phase commit's share of pre-built records. It has no
// goroutine of its own. The first entry that finds no batch held or flushing
// makes its submitter the leader (Container.lead), which holds the batch
// open for the Window, takes up to MaxBatch entries and runs the pipeline
// over them: under DurabilityWAL one append and one fsync cover the batch.
// Entries that arrive during a flush get a leader once it is done. A
// non-empty queue always has a leader, so stop can refuse new entries and
// wait for the leaders without stranding any.
type commitQueue struct {
	window   time.Duration
	maxBatch int
	// share: a batch has a hold or a log force to share. Without either no
	// entry queues behind another's flush: every submitter leads, and the
	// executors of a shared-everything container commit side by side.
	share bool

	mu      sync.Mutex
	entries []gcEntry
	// spare is the backing array of the batch that flushed last; the next
	// take queues what arrives behind its batch in it, so the queue and the
	// flushing batch swap two arrays instead of allocating.
	spare   []gcEntry
	since   time.Time // when the waiting batch's hold began (its first entry's arrival)
	leaders int       // leaders holding, taking or flushing; at most one when share
	stopped bool
	idle    sync.Cond // broadcast under mu when leaders drops to 0
	// wake ends a leader's hold early: MaxBatch entries wait, or stop.
	wake chan struct{}
	// hold times the leader's hold; one leader at a time uses it.
	hold *time.Timer

	batchSize *stats.Histogram
	// records counts pre-built records (2PC prepares and decisions) accepted
	// — the amortized participant logging, observable next to the batch-size
	// histogram. Guarded by mu.
	records uint64
}

func (q *commitQueue) init(window time.Duration, maxBatch int, logged bool) {
	q.window, q.maxBatch, q.share = window, maxBatch, window > 0 || logged
	q.idle.L = &q.mu
	q.wake = make(chan struct{}, 1)
	q.batchSize = stats.NewHistogram(stats.DepthBounds())
}

// nudge wakes a holding leader; the caller holds mu. A wake-up no leader
// takes is dropped when the next hold begins (waitHold).
func (q *commitQueue) nudge() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// submit enqueues one entry and returns the channel its outcome arrives on,
// and whether the caller must lead the queue: it then calls lead — at once
// or, for a 2PC coordinator, after it enqueued every share of its round — or
// nothing flushes the entry. Enqueuing is all submit does; the wait happens
// in the leader's hold.
//
// errDatabaseClosed means a stopped queue did not accept the entry; the
// caller still owns it and must abort.
func (c *Container) submit(e gcEntry) (done <-chan error, lead bool, err error) {
	q := &c.queue
	ch := make(chan error, 1)
	e.done = ch
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return nil, false, errDatabaseClosed
	}
	if len(q.entries) == 0 && q.window > 0 {
		q.since = time.Now()
	}
	q.entries = append(q.entries, e)
	q.records += uint64(len(e.recs))
	if len(q.entries) >= q.maxBatch {
		q.nudge()
	}
	lead = q.leaders == 0 || !q.share
	if lead {
		q.leaders++
	}
	return ch, lead, nil
}

// lead is the leader's turn: hold the batch until its first entry has waited
// the Window or MaxBatch entries wait (no hold without a window), run the
// pipeline over up to MaxBatch entries, and start the leader of what arrived
// meanwhile on a fresh goroutine, so no caller's return waits on another's
// batch. Only the last leader out leads again (without share, many lead).
func (c *Container) lead() {
	q := &c.queue
	if q.window > 0 {
		q.waitHold()
	}
	q.mu.Lock()
	n := min(len(q.entries), q.maxBatch)
	batch, rest := q.entries[:n], q.entries[n:]
	q.entries = append(q.spare[:0], rest...)
	q.spare = nil
	clear(rest)
	if len(q.entries) > 0 {
		q.since = time.Now() // entries beyond MaxBatch start a fresh hold
	}
	q.mu.Unlock()

	if n > 0 { // without share another leader may have taken this one's entry
		q.batchSize.Observe(float64(n))
		c.commitBatch(batch)
		clear(batch) // the reused array must not pin committed read/write sets
	}

	q.mu.Lock()
	q.spare = batch[:0]
	next := len(q.entries) > 0 && q.leaders == 1
	if !next {
		if q.leaders--; q.leaders == 0 {
			q.idle.Broadcast()
		}
	}
	q.mu.Unlock()
	if next {
		go c.lead()
	}
}

// waitHold is the leader's hold. A wake-up left over from an earlier batch is
// dropped under mu before the queue is looked at, so only this batch's own
// MaxBatch-th entry, or stop, ends the hold before the Window does.
func (q *commitQueue) waitHold() {
	q.mu.Lock()
	select {
	case <-q.wake:
	default:
	}
	d := q.window - time.Since(q.since)
	due := q.stopped || len(q.entries) >= q.maxBatch || d <= 0
	q.mu.Unlock()
	if due {
		return
	}
	if q.hold == nil {
		q.hold = time.NewTimer(d)
	} else {
		q.hold.Reset(d) // stopped and drained by the previous hold
	}
	select {
	case <-q.hold.C:
	case <-q.wake:
		if !q.hold.Stop() {
			<-q.hold.C
		}
	}
}

// stop refuses every later entry and waits until no leader is active, which
// — a non-empty queue always has a leader — leaves every accepted entry
// flushed. A hold in progress ends at once. stop is idempotent.
func (q *commitQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.nudge()
	for q.leaders > 0 {
		q.idle.Wait()
	}
	q.mu.Unlock()
}

// GroupCommitStats is a snapshot of one container's commit-queue activity.
type GroupCommitStats struct {
	Container int
	// Batches and Txns count flushed batches and the transactions committed
	// through them; Largest is the biggest batch seen. Read-only commits
	// bypass the queue and are not counted.
	Batches uint64
	Txns    uint64
	Largest uint64
	// Records counts pre-built 2PC records (participant prepares and
	// coordinator decisions) flushed through the queue, i.e. two-phase
	// commit log writes that amortized with the container's batches.
	Records uint64
	// BatchSize is the distribution of flushed batch sizes.
	BatchSize stats.HistogramSnapshot
}

// GroupCommitStats returns per-container commit-queue statistics.
func (db *Database) GroupCommitStats() []GroupCommitStats {
	out := make([]GroupCommitStats, 0, len(db.containers))
	for _, c := range db.containers {
		s := GroupCommitStats{Container: c.id, BatchSize: c.queue.batchSize.Snapshot()}
		s.Batches, s.Txns, s.Largest = c.domain.GroupCommitStats()
		c.queue.mu.Lock()
		s.Records = c.queue.records
		c.queue.mu.Unlock()
		out = append(out, s)
	}
	return out
}
