package server

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/raceflag"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// realFleet is the benchmark's profile in miniature: zero modeled costs, a
// write-ahead log on real files, group commit as cmd/reactdb-server ships it,
// smallbank behind a primary server on loopback, one client connection.
func realFleet(t *testing.T, customers int) (*engine.Database, *Conn) {
	t.Helper()
	cfg := engine.NewSharedEverythingWithAffinity(2)
	cfg.GroupCommit = engine.GroupCommitConfig{Enabled: true, Window: 200 * time.Microsecond, MaxBatch: 32}
	cfg.Durability = engine.DurabilityConfig{
		Mode:    engine.DurabilityWAL,
		Storage: wal.NewFileStorage(filepath.Join(t.TempDir(), "primary")),
	}
	db, err := engine.Open(smallbank.NewDefinition(customers), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(db.Close)
	if err := smallbank.Load(db, customers, 1e9, 1e9); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, addr := startPrimary(t, db, Options{})
	return db, dial(t, addr)
}

// mallocsPerOp runs op warm-up times unmeasured, then n times between two
// MemStats snapshots, and returns the process-wide allocation count per
// operation: client, both sessions, engine and commit path together, which is
// what the benchmark's allocs_per_op sees.
func mallocsPerOp(t *testing.T, n int, op func(i int)) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for i := 0; i < n/4; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// checkBudget fails the test when got exceeds budget, which is the count
// measured when the budget was set plus two.
func checkBudget(t *testing.T, what string, got, budget float64) {
	t.Helper()
	t.Logf("%s: %.2f allocs/op (budget %.0f)", what, got, budget)
	if got > budget {
		t.Fatalf("%s allocates %.2f per op, budget %.0f", what, got, budget)
	}
}

// TestWireStatsAllocBudget pins a Conn.Stats round trip: frame codec, TCP and
// both sessions with no engine work. It was 14.05 with a frame buffer, a body
// and a reply channel made per request; measured 0.00 now. Nothing is
// allocated per round trip: the node status is collected into the recycled
// request and decoded into the recycled call, and a primary's status holds no
// string.
func TestWireStatsAllocBudget(t *testing.T) {
	_, conn := realFleet(t, 16)
	got := mallocsPerOp(t, 2000, func(int) {
		if _, err := conn.Stats(); err != nil {
			t.Fatalf("stats: %v", err)
		}
	})
	checkBudget(t, "stats round trip", got, 2)
}

func smallbankNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = smallbank.ReactorName(i)
	}
	return names
}

// TestWireReadAllocBudget pins one smallbank balance over the wire, one
// caller: 47.08 before, 16.03 while read-only commits went through the group
// committer, measured 8.00 now. What remains:
//
//	7  engine.Database.Execute (itemised in engine's TestExecuteAllocBudget)
//	1  the client boxing the float64 result into the any it returns
func TestWireReadAllocBudget(t *testing.T) {
	const customers = 16
	_, conn := realFleet(t, customers)
	names := smallbankNames(customers)
	got := mallocsPerOp(t, 2000, func(i int) {
		v, err := conn.Execute(names[i%customers], smallbank.ProcBalance)
		if b, ok := v.(float64); err != nil || !ok || b != 2e9 {
			t.Fatalf("balance = %v, %v", v, err)
		}
	})
	checkBudget(t, "wire read", got, 10)
}

// TestWireDepositAllocBudget pins one smallbank deposit_checking(1.0) over the
// wire, one caller: 60.09 before, 28.04 with a committer goroutine and its
// window timers, measured 25.11 now. What remains:
//
//	 1  the server boxing the float64 argument it decoded
//	 2  engine: the rootTxn and the closure of `go runTask`
//	 9  the procedure: key-argument slices and boxed keys of its reads, the
//	    row it decodes and the one it builds, normalised and encoded for Update
//	13  commit, all of it per batch and here a batch of one: the outcome
//	    channel, commitBatch's slices, the WAL record with its key copy and
//	    frame buffers, the installed row version
func TestWireDepositAllocBudget(t *testing.T) {
	const customers = 16
	_, conn := realFleet(t, customers)
	names := smallbankNames(customers)
	got := mallocsPerOp(t, 1000, func(i int) {
		if _, err := conn.Execute(names[i%customers], smallbank.ProcDepositChecking, 1.0); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	})
	checkBudget(t, "wire deposit", got, 30)
}

// TestWireReplicaReadAllocBudget pins one bounded-freshness smallbank balance
// on a replica's listener, one caller, a semi-sync replica on real files as
// the benchmark's repl-mixed runs it: 9.00 while the freshness check built a
// ReplicaStats and its Shards slice per request, measured 8.00 now — the same
// as on a primary (TestWireReadAllocBudget): reading the lag allocates
// nothing.
func TestWireReplicaReadAllocBudget(t *testing.T) {
	const customers = 16
	db, _ := realFleet(t, customers)
	if err := db.Checkpoint(); err != nil { // the loaded rows reach a replica by the blob
		t.Fatalf("checkpoint: %v", err)
	}
	rep, err := engine.OpenReplica(db, engine.ReplicaOptions{
		Ack:     engine.AckSemiSync,
		Storage: wal.NewFileStorage(filepath.Join(t.TempDir(), "replica")),
	})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(rep.Close)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, addr := startReplica(t, rep, Options{})
	conn := dial(t, addr)
	names := smallbankNames(customers)
	got := mallocsPerOp(t, 2000, func(i int) {
		v, err := conn.ExecuteFresh(1000, names[i%customers], smallbank.ProcBalance)
		if b, ok := v.(float64); err != nil || !ok || b != 2e9 {
			t.Fatalf("balance = %v, %v", v, err)
		}
	})
	checkBudget(t, "wire replica read", got, 10)
}
