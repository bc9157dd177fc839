package engine

import (
	"sync"
	"testing"
	"time"
)

// TestStaleWindowTimerDoesNotEarlyFlushFreshBatch is the regression test for
// the stale-timer race: a window timer armed for a batch that was since
// flushed (because it filled up) fired into the next batch and flushed it
// before its own window elapsed, destroying amortization. With the
// generation-tagged timers a fresh batch waits out its full window.
func TestStaleWindowTimerDoesNotEarlyFlushFreshBatch(t *testing.T) {
	const window = 400 * time.Millisecond
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 2, Window: window},
	}
	db, _, _ := openGate(t, cfg)

	// Fill and flush one batch: the first submit arms the window timer that,
	// before the fix, stayed live after the size-triggered flush.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Execute("g0", "noop"); err != nil {
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
	if _, err := db.Execute("g0", "noop"); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < window-window/5 {
		t.Fatalf("fresh batch flushed after %v, want its full window (~%v): a stale timer flushed it early", elapsed, window)
	}
}

// TestGroupCommitSubmitStopRace hammers submit against stop: every submitted
// transaction's waiter must be resolved (flush or fail-fast), never left
// blocking forever on a batch the stopped loop will not flush. Run under
// -race this also exercises the stopped-flag handshake.
func TestGroupCommitSubmitStopRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		cfg := Config{
			Containers:            1,
			ExecutorsPerContainer: 1,
			GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 8, Window: 50 * time.Microsecond},
		}
		db, _, _ := openGate(t, cfg)
		c := db.containers[0]
		gc := c.committer

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
					done, ok := c.submit(gcEntry{txn: txn})
					if !ok {
						// Committer stopped: the caller keeps ownership.
						if err := txn.AbortPrepared(); err != nil {
							t.Errorf("AbortPrepared after rejected submit: %v", err)
						}
						return
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
		gc.stop() // idempotent: db.Close will stop it again

		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(30 * time.Second):
			t.Fatal("workers hung after stop")
		}
		db.Close()
	}
}

// TestGroupCommitterStopIsIdempotent double-stops a committer directly.
func TestGroupCommitterStopIsIdempotent(t *testing.T) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		GroupCommit:           GroupCommitConfig{Enabled: true},
	}
	db, _, _ := openGate(t, cfg)
	gc := db.containers[0].committer
	gc.stop()
	gc.stop()
	if _, ok := db.containers[0].submit(gcEntry{txn: db.containers[0].domain.Begin()}); ok {
		t.Fatal("submit accepted a transaction after stop")
	}
}
