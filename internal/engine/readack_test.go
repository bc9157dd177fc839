package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"reactdb/internal/wal"
)

// This file tests the read-only commit's acknowledgment: a read-only
// transaction appends nothing and bypasses the commit pipeline, and acks once
// the log's durable watermark (and, under semi-sync, the mirror) covers every
// write it could have observed — at once on an idle log, never before the
// write it read is durable. The semi-sync half is the read arm of
// TestFencedPrimaryDoesNotAckUnshippedCommit.

// TestReadAckWaitsForObservedFsync reads a row whose writer is installed but
// whose fsync is held by the storage: the read must not return until that
// fsync is released, and when the fsync fails the read fails with it.
func TestReadAckWaitsForObservedFsync(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := "sync-succeeds"
		if fail {
			name = "sync-fails"
		}
		t.Run(name, func(t *testing.T) {
			mem := wal.NewMemStorage()
			db := MustOpen(kvDef("kv0"), walCfg(mem))
			t.Cleanup(db.Close)
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			mem.GateSyncs(gate)
			// Release the held fsync before Close, which would wait on it.
			t.Cleanup(release)

			syncs := mem.SyncsStarted()
			wrote := make(chan error, 1)
			go func() {
				_, err := db.Execute("kv0", "put", int64(1), int64(10))
				wrote <- err
			}()
			// The write phase installs before the force: once the fsync has
			// started, the row is visible and not durable.
			waitFor(t, 5*time.Second, func() bool { return mem.SyncsStarted() > syncs })

			type result struct {
				v   any
				err error
			}
			read := make(chan result, 1)
			go func() {
				v, err := db.Execute("kv0", "get", int64(1))
				read <- result{v, err}
			}()
			select {
			case r := <-read:
				t.Fatalf("read returned (%v, %v) while the write it observed was not durable", r.v, r.err)
			case <-time.After(50 * time.Millisecond):
			}

			injected := errors.New("injected fsync failure")
			if fail {
				mem.FailSyncs(injected)
			}
			release()
			r, werr := <-read, <-wrote
			if fail {
				if !errors.Is(r.err, injected) || !errors.Is(werr, injected) {
					t.Fatalf("after a failed fsync: read (%v, %v), write %v; want both to fail with the fsync", r.v, r.err, werr)
				}
				return
			}
			if r.err != nil || r.v != int64(10) || werr != nil {
				t.Fatalf("after the fsync: read (%v, %v), write %v; want (10, nil), nil", r.v, r.err, werr)
			}
		})
	}
}

// TestReadAckIdleLogIssuesNoSync: on an idle log — every appended record
// already durable — reads touch no storage at all, not even an fsync, and do
// not wait out the group-commit window: each read's force is absorbed.
func TestReadAckIdleLogIssuesNoSync(t *testing.T) {
	const window = 100 * time.Millisecond
	trace := &ioTrace{}
	cfg := walCfg(&traceStorage{Storage: wal.NewMemStorage(), trace: trace})
	cfg.GroupCommit = GroupCommitConfig{Enabled: true, MaxBatch: 32, Window: window}
	db := MustOpen(kvDef("kv0"), cfg)
	t.Cleanup(db.Close)
	if _, err := db.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if ops := trace.take(); len(ops) == 0 {
		t.Fatal("the write issued no IO; the trace sees nothing")
	}

	const n = 50
	absorbed := db.WALStats()[0].SyncsAbsorbed
	start := time.Now()
	for i := 0; i < n; i++ {
		if v, err := db.Execute("kv0", "get", int64(1)); err != nil || v != int64(10) {
			t.Fatalf("read %d = (%v, %v), want (10, nil)", i, v, err)
		}
	}
	elapsed := time.Since(start)
	if ops := trace.take(); len(ops) != 0 {
		t.Fatalf("%d reads on an idle log issued IO: %v", n, ops)
	}
	if got := db.WALStats()[0].SyncsAbsorbed - absorbed; got != n {
		t.Fatalf("%d reads absorbed %d syncs, want %d", n, got, n)
	}
	if elapsed >= window {
		t.Fatalf("%d reads took %v, at least one group-commit window (%v)", n, elapsed, window)
	}
}

// TestCrashReadAckedValuesSurviveRecovery kills the machine at every storage
// IO boundary of a put-then-get script and recovers: every value a read
// acknowledged must be present after recovery. The crash points include the
// one the read-only ack exists for — a write installed in memory whose fsync
// dies — and a read of that write must fail rather than ack a value recovery
// loses.
func TestCrashReadAckedValuesSurviveRecovery(t *testing.T) {
	const keys = 4
	type acks struct {
		put  [keys]bool
		read [keys]any // the acknowledged value, nil when the read failed or found nothing
	}
	script := func(db *Database) (a acks, dirty bool) {
		for k := int64(0); k < keys; k++ {
			_, err := db.Execute("kv0", "put", k, 100+k)
			a.put[k] = err == nil
			if !a.put[k] {
				if row, _ := db.ReadRow("kv0", "store", k); row != nil {
					dirty = true // installed, never acknowledged
				}
			}
			if v, err := db.Execute("kv0", "get", k); err == nil {
				a.read[k] = v
			}
		}
		return a, dirty
	}
	for _, grouped := range []bool{false, true} {
		mode := "eager"
		if grouped {
			mode = "grouped"
		}
		t.Run(mode, func(t *testing.T) {
			def := kvDef("kv0", "kv1")
			cal := &crashCounter{crashAt: -1}
			db := MustOpen(def, crashCfg(&crashStorage{inner: wal.NewMemStorage(), ctr: cal}, grouped))
			a, _ := script(db)
			db.Close()
			for k := range a.read {
				if a.read[k] != 100+int64(k) {
					t.Fatalf("crash-free run: read %d = %v", k, a.read[k])
				}
			}
			total := cal.ops.Load()

			sawDirty := false
			for crashAt := int64(0); crashAt <= total; crashAt++ {
				label := fmt.Sprintf("%s crashAt=%d", mode, crashAt)
				mem := wal.NewMemStorage()
				db := MustOpen(def, crashCfg(&crashStorage{inner: mem, ctr: &crashCounter{crashAt: crashAt}}, grouped))
				a, dirty := script(db)
				sawDirty = sawDirty || dirty
				db.Close()

				db2 := MustOpen(def, crashCfg(mem.CrashCopy(), grouped))
				if _, err := db2.Recover(); err != nil {
					t.Fatalf("%s: Recover: %v", label, err)
				}
				for k := int64(0); k < keys; k++ {
					v, present := readV(t, db2, "kv0", k)
					if (a.put[k] || a.read[k] != nil) && (!present || v != 100+k) {
						t.Fatalf("%s: key %d acknowledged (put %v, read %v) but recovered as (%d, %v)", label, k, a.put[k], a.read[k], v, present)
					}
				}
				db2.Close()
			}
			if !sawDirty {
				t.Fatal("no crash point left a write installed but unacknowledged; the matrix misses the case under test")
			}
		})
	}
}
