package engine_test

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

// TestExecuteAllocBudget pins what one root transaction costs the allocator
// before and around its procedure: a smallbank balance through
// Database.Execute on the benchmark's real profile (zero modeled costs, WAL
// on files, group commit 200µs/32), one caller. The workload packages import
// engine, hence the external test package. It was 27.01 when the active set,
// the touched-container map, the task, the future and its channel, the
// execution context and the core session were allocations of their own, and
// 15.00 while a read-only commit still went through the group committer (its
// outcome channel and a batch of one). Measured 7.00 now. What remains per
// call:
//
//	1  the rootTxn, which holds all of the above by value
//	1  the closure of `go runTask` in the executor's run loop
//	5  the procedure: the key-argument slices of its three GetView calls, the
//	   boxed reactor name, the boxed float64 it returns
//
// The read-only commit itself allocates nothing: it validates and acks on the
// log's durable watermark without entering the commit pipeline.
func TestExecuteAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const customers = 16
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
	defer db.Close()
	if err := smallbank.Load(db, customers, 1e9, 1e9); err != nil {
		t.Fatalf("load: %v", err)
	}
	names := make([]string, customers)
	for i := range names {
		names[i] = smallbank.ReactorName(i)
	}
	balance := func(i int) {
		v, err := db.Execute(names[i%customers], smallbank.ProcBalance)
		if b, ok := v.(float64); err != nil || !ok || b != 2e9 {
			t.Fatalf("balance = %v, %v", v, err)
		}
	}
	const n = 2000
	for i := 0; i < n/4; i++ {
		balance(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		balance(i)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / n
	const budget = 9 // measured plus two
	t.Logf("engine Execute(balance): %.2f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("Execute(balance) allocates %.2f per op, budget %d", got, budget)
	}
}
