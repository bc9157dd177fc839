package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// TestStaleWindowTimerDoesNotEarlyFlushFreshBatch is the regression test for
// the stale-timer race: a window timer armed for a batch that was since
// flushed (because it filled up) fired into the next batch and flushed it
// before its own window elapsed, destroying amortization. A leader's hold is
// timed from its own batch's first entry, so a fresh batch waits out its full
// window. The probes write (read-only commits never enter the commit queue),
// each its own row so that no two contend for a record lock.
func TestStaleWindowTimerDoesNotEarlyFlushFreshBatch(t *testing.T) {
	const window = 400 * time.Millisecond
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 2, Window: window},
	}
	db, _, _ := openGate(t, cfg)
	for k := int64(0); k < 3; k++ {
		db.MustLoad("g0", "balance", rel.Row{k, float64(0)})
	}

	// Fill and flush one batch: the first submit arms the window timer that,
	// before the fix, stayed live after the size-triggered flush.
	var wg sync.WaitGroup
	for k := int64(0); k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Execute("g0", "put", k); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	wg.Wait()

	// Let the stale timer's firing point land in the middle of the next
	// batch's window: without the fix the lone transaction below would be
	// flushed ~window/2 after submission instead of waiting its own window.
	time.Sleep(window / 2)
	start := time.Now()
	if _, err := db.Execute("g0", "put", int64(2)); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < window-window/5 {
		t.Fatalf("fresh batch flushed after %v, want its full window (~%v): a stale timer flushed it early", elapsed, window)
	}
}

// TestGroupCommitSubmitStopRace hammers submit against stop: every submitted
// transaction's waiter must be resolved (flush or fail-fast), never left
// blocking forever on a batch nothing will flush. The held arm's window
// outlasts the test, so stop lands in a leader's hold: it must end the hold,
// wait for that flush and leave the queue empty and leaderless. Run under
// -race this also exercises the stopped-flag handshake.
func TestGroupCommitSubmitStopRace(t *testing.T) {
	for _, arm := range []struct {
		name string
		gc   GroupCommitConfig
	}{
		{"hammer", GroupCommitConfig{Enabled: true, MaxBatch: 8, Window: 50 * time.Microsecond}},
		{"held", GroupCommitConfig{Enabled: true, MaxBatch: 64, Window: time.Hour}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				submitStopRound(t, arm.gc)
			}
		})
	}
}

func submitStopRound(t *testing.T, gc GroupCommitConfig) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		GroupCommit:           gc,
	}
	db, _, _ := openGate(t, cfg)
	c := db.containers[0]

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				txn := c.domain.Begin()
				if err := txn.Prepare(); err != nil {
					t.Errorf("Prepare: %v", err)
					return
				}
				done, lead, err := c.submit(gcEntry{txn: txn})
				if err != nil {
					// Queue stopped: the caller keeps ownership.
					if err := txn.AbortPrepared(); err != nil {
						t.Errorf("AbortPrepared after rejected submit: %v", err)
					}
					return
				}
				if lead {
					c.lead()
				}
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Error("accepted transaction never flushed: submit/stop race")
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		c.queue.stop() // idempotent: db.Close will stop it again
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("stop waited out a leader's hold")
	}
	c.queue.mu.Lock()
	pending, leaders := len(c.queue.entries), c.queue.leaders
	c.queue.mu.Unlock()
	if pending != 0 || leaders != 0 {
		t.Fatalf("stop returned with %d entries queued (%d leaders active)", pending, leaders)
	}

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("workers hung after stop")
	}
	db.Close()
}

// TestGroupCommitterStopIsIdempotent double-stops a commit queue directly.
func TestGroupCommitterStopIsIdempotent(t *testing.T) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		GroupCommit:           GroupCommitConfig{Enabled: true},
	}
	db, _, _ := openGate(t, cfg)
	q := &db.containers[0].queue
	q.stop()
	q.stop()
	if _, _, err := db.containers[0].submit(gcEntry{txn: db.containers[0].domain.Begin()}); err == nil {
		t.Fatal("submit accepted a transaction after stop")
	}
}

// TestGroupCommitNothingToShareLeadsEverySubmit: with no log and no window a
// batch shares nothing, so no entry may wait on another's flush — the
// executors of a shared-everything container commit side by side. Every
// submitter is told to lead; leaders racing over the same entries flush each
// once, whichever takes it, and the queue is leaderless afterwards.
func TestGroupCommitNothingToShareLeadsEverySubmit(t *testing.T) {
	db, _, _ := openGate(t, Config{Containers: 1, ExecutorsPerContainer: 4})
	c := db.containers[0]
	dones := make([]<-chan error, 4)
	for i := range dones {
		txn := c.domain.Begin()
		if err := txn.Prepare(); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		done, lead, err := c.submit(gcEntry{txn: txn})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if !lead {
			t.Fatalf("submit %d was told to follow: its entry would queue behind another's flush", i)
		}
		dones[i] = done
	}
	var wg sync.WaitGroup
	for range dones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.lead()
		}()
	}
	wg.Wait()
	for i, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
		default:
			t.Fatalf("entry %d has no outcome after every leader returned", i)
		}
	}
	c.queue.mu.Lock()
	pending, leaders := len(c.queue.entries), c.queue.leaders
	c.queue.mu.Unlock()
	if pending != 0 || leaders != 0 {
		t.Fatalf("%d entries queued and %d leaders active after every leader returned", pending, leaders)
	}
}

// TestGroupCommitFailedForceHandsOff holds a leader's fsync and fails it: both
// entries of its batch get the force's error, and the two entries queued
// behind it during the flush get a leader of their own — a second batch — and
// exactly one outcome each. The queue is free afterwards: the next entry
// leads and commits.
func TestGroupCommitFailedForceHandsOff(t *testing.T) {
	mem := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: mem},
	})
	t.Cleanup(db.Close)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before Close, which waits for the held flush
	c := db.containers[0]
	submit := func(wantLead bool) <-chan error {
		t.Helper()
		txn := c.domain.Begin()
		if err := txn.Prepare(); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		done, lead, err := c.submit(gcEntry{txn: txn})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if lead != wantLead {
			t.Fatalf("submit told the caller to lead: %v, want %v", lead, wantLead)
		}
		return done
	}

	started := mem.SyncsStarted()
	mem.GateSyncs(gate)
	batch := []<-chan error{submit(true), submit(false)}
	go c.lead()
	waitFor(t, replicaWait, func() bool { return mem.SyncsStarted() > started })
	behind := []<-chan error{submit(false), submit(false)}
	boom := errors.New("injected fsync failure")
	mem.FailSyncs(boom)
	release()

	for i, done := range batch {
		if err := <-done; !errors.Is(err, boom) {
			t.Fatalf("batch entry %d: %v, want the failed force's error", i, err)
		}
	}
	for i, done := range behind {
		select {
		case <-done:
		case <-time.After(replicaWait):
			t.Fatalf("entry %d queued behind the failed flush got no outcome", i)
		}
	}
	waitFor(t, replicaWait, func() bool {
		c.queue.mu.Lock()
		defer c.queue.mu.Unlock()
		return c.queue.leaders == 0
	})
	for i, done := range append(batch, behind...) {
		if len(done) != 0 {
			t.Fatalf("entry %d got a second outcome", i)
		}
	}
	if n := db.GroupCommitStats()[0].BatchSize.Count; n != 2 {
		t.Fatalf("%d batches flushed, want 2: the failed one and the one behind it", n)
	}

	mem.FailSyncs(nil)
	done := submit(true)
	c.lead()
	if err := <-done; err != nil {
		t.Fatalf("commit after the failed flush: %v", err)
	}
}
