package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// kvType is a single-relation reactor with upsert/delete procedures, the
// minimal write workload for durability tests.
func kvType() *core.Type {
	schema := rel.MustSchema("store",
		[]rel.Column{{Name: "k", Type: rel.Int64}, {Name: "v", Type: rel.Int64}}, "k")
	t := core.NewType("KV").AddRelation(schema)
	t.AddProcedure("put", func(ctx core.Context, args core.Args) (any, error) {
		k, v := args.Int64(0), args.Int64(1)
		row, err := ctx.Get("store", k)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, ctx.Insert("store", rel.Row{k, v})
		}
		return nil, ctx.Update("store", rel.Row{k, v})
	})
	t.AddProcedure("del", func(ctx core.Context, args core.Args) (any, error) {
		return nil, ctx.Delete("store", args.Int64(0))
	})
	// get is the read-only probe: the value stored under k, or nil.
	t.AddProcedure("get", func(ctx core.Context, args core.Args) (any, error) {
		row, err := ctx.Get("store", args.Int64(0))
		if err != nil || row == nil {
			return nil, err
		}
		return row.Int64(1), nil
	})
	// putRemote reads a local marker and writes only the destination reactor
	// — a multi-container transaction whose lowest-numbered participant is
	// read-only when the reactors are placed apart.
	t.AddProcedure("putRemote", func(ctx core.Context, args core.Args) (any, error) {
		dst, k, v := args.String(0), args.Int64(1), args.Int64(2)
		if _, err := ctx.Get("store", int64(1)); err != nil {
			return nil, err
		}
		fut, err := ctx.Call(dst, "put", k, v)
		if err != nil {
			return nil, err
		}
		_, err = fut.Get()
		return nil, err
	})
	// copyTo writes a local marker and mirrors (k, v) onto another reactor —
	// a multi-container transaction when the two reactors are placed apart.
	t.AddProcedure("copyTo", func(ctx core.Context, args core.Args) (any, error) {
		dst, k, v := args.String(0), args.Int64(1), args.Int64(2)
		row, err := ctx.Get("store", k)
		if err != nil {
			return nil, err
		}
		if row == nil {
			if err := ctx.Insert("store", rel.Row{k, v}); err != nil {
				return nil, err
			}
		} else if err := ctx.Update("store", rel.Row{k, v}); err != nil {
			return nil, err
		}
		fut, err := ctx.Call(dst, "put", k, v)
		if err != nil {
			return nil, err
		}
		_, err = fut.Get()
		return nil, err
	})
	return t
}

func kvDef(reactors ...string) *core.DatabaseDef {
	def := core.NewDatabaseDef().MustAddType(kvType())
	def.MustDeclareReactors("KV", reactors...)
	return def
}

func walCfg(storage wal.Storage) Config {
	return Config{
		Containers:            1,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 500 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
	}
}

func readV(t *testing.T, db *Database, reactor string, k int64) (int64, bool) {
	t.Helper()
	row, err := db.ReadRow(reactor, "store", k)
	if err != nil {
		t.Fatalf("ReadRow(%s, %d): %v", reactor, k, err)
	}
	if row == nil {
		return 0, false
	}
	return row.Int64(1), true
}

// TestRecoverReplaysAcknowledgedCommits commits a mixed workload through the
// WAL-backed commit queue, drops every byte of in-memory state (a new
// Database instance), recovers, and checks that exactly the acknowledged
// effects are visible — inserts, the newest version of updated rows, and the
// absence of deleted rows.
func TestRecoverReplaysAcknowledgedCommits(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Overwrite some, delete some: replay must converge on the final state.
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(1000+i)); err != nil {
			t.Fatalf("re-put %d: %v", i, err)
		}
	}
	for i := 30; i < 35; i++ {
		if _, err := db.Execute("kv0", "del", int64(i)); err != nil {
			t.Fatalf("del %d: %v", i, err)
		}
	}
	db.Close()

	db2 := MustOpen(def, cfg)
	t.Cleanup(db2.Close)
	replayed, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed != n+10+5 {
		t.Fatalf("Recover replayed %d transactions, want %d", replayed, n+10+5)
	}
	for i := 0; i < n; i++ {
		v, present := readV(t, db2, "kv0", int64(i))
		switch {
		case i < 10:
			if !present || v != int64(1000+i) {
				t.Fatalf("key %d = (%d, %v), want updated value %d", i, v, present, 1000+i)
			}
		case i >= 30 && i < 35:
			if present {
				t.Fatalf("deleted key %d resurfaced with %d", i, v)
			}
		default:
			if !present || v != int64(100+i) {
				t.Fatalf("key %d = (%d, %v), want %d", i, v, present, 100+i)
			}
		}
	}

	// The recovered database must accept new transactions whose TIDs sort
	// after every replayed version.
	if _, err := db2.Execute("kv0", "put", int64(0), int64(7)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if v, _ := readV(t, db2, "kv0", 0); v != 7 {
		t.Fatalf("post-recovery write invisible: %d", v)
	}
}

// TestRecoverAfterLoaderBootstrap checks the documented ordering: loaders
// populate base data first, then Recover lays newer logged versions on top.
func TestRecoverAfterLoaderBootstrap(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	db.MustLoad("kv0", "store", rel.Row{int64(1), int64(11)})
	db.MustLoad("kv0", "store", rel.Row{int64(2), int64(22)})
	if _, err := db.Execute("kv0", "put", int64(2), int64(222)); err != nil {
		t.Fatalf("put: %v", err)
	}
	db.Close()

	db2 := MustOpen(def, cfg)
	t.Cleanup(db2.Close)
	// Loaded rows are not logged: re-run the loader, then replay.
	db2.MustLoad("kv0", "store", rel.Row{int64(1), int64(11)})
	db2.MustLoad("kv0", "store", rel.Row{int64(2), int64(22)})
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 1); !present || v != 11 {
		t.Fatalf("loaded key 1 = (%d, %v), want 11", v, present)
	}
	if v, present := readV(t, db2, "kv0", 2); !present || v != 222 {
		t.Fatalf("key 2 = (%d, %v), want logged version 222 over loaded 22", v, present)
	}
}

// TestRecoverAfterCommitterKilledMidBatch is the crash-consistency test: the
// queue's leader is wedged inside its batch fsync (transactions installed in
// memory, appended to the log, but never durable and never acknowledged),
// the machine "dies", and a fresh database recovers from the durable prefix.
// Every acknowledged commit must be visible; no wedged, unacknowledged
// transaction may surface.
func TestRecoverAfterCommitterKilledMidBatch(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	def := kvDef("kv0")
	db := MustOpen(def, cfg)

	const acked = 20
	for i := 0; i < acked; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Wedge fsync, then fire transactions that will die mid-batch.
	gate := make(chan struct{})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	storage.GateSyncs(gate)
	baseline := storage.SyncsStarted()
	const unacked = 5
	var wg sync.WaitGroup
	for i := 0; i < unacked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The outcome is irrelevant: the "machine" dies before delivery.
			_, _ = db.Execute("kv0", "put", int64(1000+i), int64(1))
		}(i)
	}
	// Cleanup in reverse order: release the gate, let the wedged waiters
	// drain, then close — so a failing assertion cannot deadlock Close.
	t.Cleanup(db.Close)
	t.Cleanup(wg.Wait)
	t.Cleanup(releaseGate)
	waitFor(t, 10*time.Second, func() bool { return storage.SyncsStarted() > baseline })

	// Crash: only fsynced bytes survive.
	db2 := MustOpen(def, walCfg(storage.CrashCopy()))
	t.Cleanup(db2.Close)
	replayed, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed != acked {
		t.Fatalf("Recover replayed %d transactions, want the %d acknowledged ones", replayed, acked)
	}
	for i := 0; i < acked; i++ {
		if v, present := readV(t, db2, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("acknowledged key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
	for i := 0; i < unacked; i++ {
		if v, present := readV(t, db2, "kv0", int64(1000+i)); present {
			t.Fatalf("unacknowledged key %d surfaced after crash with %d", 1000+i, v)
		}
	}
}

// TestWALStatsAndFsyncAmortization sanity-checks the WAL instrumentation:
// with group commit batching K concurrent writers, fsyncs must number well
// below appends.
func TestWALStatsAndFsyncAmortization(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	cfg.GroupCommit.MaxBatch = 16
	cfg.GroupCommit.Window = 2 * time.Millisecond
	def := kvDef("kv0")
	db := MustOpen(def, cfg)
	t.Cleanup(db.Close)

	// Preload distinct keys: updates to existing rows do not touch table
	// structure, so concurrent writers batch freely (inserts would serialize
	// on the structural latch they hold through the batch wait).
	const workers, perWorker = 8, 25
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			db.MustLoad("kv0", "store", rel.Row{int64(w*1000 + i), int64(0)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					_, err := db.Execute("kv0", "put", int64(w*1000+i), int64(i))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	ws := db.WALStats()
	if len(ws) != 1 || !ws[0].Enabled {
		t.Fatalf("WALStats = %+v, want one enabled container", ws)
	}
	s := ws[0].Stats
	if s.Appends != workers*perWorker {
		t.Fatalf("appends = %d, want %d", s.Appends, workers*perWorker)
	}
	if s.Fsyncs == 0 || s.Fsyncs >= s.Appends {
		t.Fatalf("fsyncs = %d for %d appends: group fsync is not amortizing", s.Fsyncs, s.Appends)
	}
	if s.BytesPerFlush.Count != int64(s.Fsyncs) || s.FsyncLatency.Count != int64(s.Fsyncs) {
		t.Fatalf("histogram counts (bytes %d, latency %d) != fsyncs %d",
			s.BytesPerFlush.Count, s.FsyncLatency.Count, s.Fsyncs)
	}
}

// TestFileBackedWALRecovery runs the clean-restart recovery path against real
// files and real fsyncs.
func TestFileBackedWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 500 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: wal.NewFileStorage(dir)},
	}
	reactors := make([]string, 8)
	for i := range reactors {
		reactors[i] = fmt.Sprintf("kv%d", i)
	}
	def := kvDef(reactors...)

	db := MustOpen(def, cfg)
	for i, r := range reactors {
		if _, err := db.Execute(r, "put", int64(1), int64(10+i)); err != nil {
			t.Fatalf("put on %s: %v", r, err)
		}
	}
	db.Close()

	// A fresh Config (fresh FileStorage) pointed at the same directory.
	db2 := MustOpen(def, Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		GroupCommit:           cfg.GroupCommit,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: wal.NewFileStorage(dir)},
	})
	t.Cleanup(db2.Close)
	replayed, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed != len(reactors) {
		t.Fatalf("replayed %d, want %d", replayed, len(reactors))
	}
	for i, r := range reactors {
		if v, present := readV(t, db2, r, 1); !present || v != int64(10+i) {
			t.Fatalf("%s key 1 = (%d, %v), want %d", r, v, present, 10+i)
		}
	}
}

// failingSubStorage wraps a wal.Storage tree and fails segment writes inside
// one named sub-storage while armed, leaving siblings healthy — the shape of
// a single container's log device failing mid-2PC.
type failingSubStorage struct {
	wal.Storage
	name     string
	failName string
	armed    *atomic.Bool
	errVal   error
}

func (s *failingSubStorage) Sub(name string) wal.Storage {
	return &failingSubStorage{
		Storage:  s.Storage.Sub(name),
		name:     name,
		failName: s.failName,
		armed:    s.armed,
		errVal:   s.errVal,
	}
}

func (s *failingSubStorage) Create(index uint64) (wal.SegmentFile, error) {
	f, err := s.Storage.Create(index)
	if err != nil {
		return nil, err
	}
	return &failingSegmentFile{SegmentFile: f, owner: s}, nil
}

type failingSegmentFile struct {
	wal.SegmentFile
	owner *failingSubStorage
}

func (f *failingSegmentFile) Write(p []byte) (int, error) {
	if f.owner.armed.Load() && f.owner.name == f.owner.failName {
		return 0, f.owner.errVal
	}
	return f.SegmentFile.Write(p)
}

// TestAbortedTwoPCIsNotResurrectedByRecovery: a multi-container transaction
// whose second participant's WAL append fails is aborted and its client gets
// an error; the commit record already appended to the first participant's
// healthy log must be retracted so later fsyncs plus a restart cannot
// resurrect half of the aborted transaction.
func TestAbortedTwoPCIsNotResurrectedByRecovery(t *testing.T) {
	mem := wal.NewMemStorage()
	var armed atomic.Bool
	storage := &failingSubStorage{
		Storage:  wal.Storage(mem),
		failName: "container-1",
		armed:    &armed,
		errVal:   errors.New("injected log device failure"),
	}
	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		// Group commit off: the 2PC path appends through the containers'
		// logs directly.
		Durability: DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
		Placement: func(reactor string) int {
			if reactor == "kv0" {
				return 0
			}
			return 1
		},
	}
	def := kvDef("kv0", "kv1")
	db := MustOpen(def, cfg)

	// Acknowledged baseline on container 0.
	if _, err := db.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put: %v", err)
	}

	// The cross-container transaction fails at participant 1's append.
	armed.Store(true)
	if _, err := db.Execute("kv0", "copyTo", "kv1", int64(2), int64(20)); err == nil {
		t.Fatal("copyTo succeeded despite the injected log failure")
	}
	armed.Store(false)

	// Container 0's log is healthy: later commits fsync it (and with it the
	// aborted transaction's record plus its retraction).
	if _, err := db.Execute("kv0", "put", int64(3), int64(30)); err != nil {
		t.Fatalf("put after failed 2PC: %v", err)
	}
	// The live database agrees the transaction aborted.
	if _, present := readV(t, db, "kv0", 2); present {
		t.Fatal("aborted transaction's local write visible in live database")
	}
	db.Close()

	db2 := MustOpen(def, Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: wal.Storage(mem)},
		Placement:             cfg.Placement,
	})
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 1); !present || v != 10 {
		t.Fatalf("acknowledged key 1 = (%d, %v), want 10", v, present)
	}
	if v, present := readV(t, db2, "kv0", 3); !present || v != 30 {
		t.Fatalf("acknowledged key 3 = (%d, %v), want 30", v, present)
	}
	if v, present := readV(t, db2, "kv0", 2); present {
		t.Fatalf("aborted 2PC write resurrected on container 0 with %d", v)
	}
	if v, present := readV(t, db2, "kv1", 2); present {
		t.Fatalf("aborted 2PC write resurrected on container 1 with %d", v)
	}
}

// TestRecoverNoOpWithoutWAL makes sure Recover is safe under the modeled
// ablation.
func TestRecoverNoOpWithoutWAL(t *testing.T) {
	db := MustOpen(kvDef("kv0"), Config{Containers: 1, ExecutorsPerContainer: 1})
	t.Cleanup(db.Close)
	if n, err := db.Recover(); n != 0 || err != nil {
		t.Fatalf("Recover = (%d, %v), want no-op", n, err)
	}
}
