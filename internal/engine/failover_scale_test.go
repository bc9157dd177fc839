package engine_test

import (
	"testing"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// TestFailoverWallTimeSmallbank times Supervisor.Failover onto a caught-up
// semi-sync replica of 100k smallbank customers (in-memory storage, the
// benchmark's group commit) and logs it: promotion finishes the replica's
// recovery in place, so the time does not grow with the loaded state or the
// mirror's length. The promoted primary must serve the last acknowledged
// deposit and a new one.
func TestFailoverWallTimeSmallbank(t *testing.T) {
	const customers = 100_000
	cfg := engine.NewSharedEverythingWithAffinity(2)
	cfg.GroupCommit = engine.GroupCommitConfig{Enabled: true, Window: 200 * time.Microsecond, MaxBatch: 32}
	cfg.Durability = engine.DurabilityConfig{Mode: engine.DurabilityWAL, Storage: wal.NewMemStorage()}
	primary := engine.MustOpen(smallbank.NewDefinition(customers), cfg)
	t.Cleanup(primary.Close)
	if err := smallbank.Load(primary, customers, 100, 100); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rep, err := engine.OpenReplica(primary, engine.ReplicaOptions{Ack: engine.AckSemiSync})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	for i := 0; i < 200; i++ {
		if _, err := primary.Execute(smallbank.ReactorName(i), smallbank.ProcDepositChecking, 1.0); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}

	sup := engine.NewSupervisor(primary, []*engine.Replica{rep}, engine.SupervisorOptions{})
	start := time.Now()
	promoted, err := sup.Failover()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	t.Cleanup(promoted.Close)
	t.Logf("Supervisor.Failover onto a replica of %d smallbank customers: %v", customers, elapsed)
	for _, c := range []int{199, 0} {
		if _, err := promoted.Execute(smallbank.ReactorName(c), smallbank.ProcDepositChecking, 1.0); err != nil {
			t.Fatalf("deposit on the promoted primary: %v", err)
		}
	}
	got, err := promoted.Execute(smallbank.ReactorName(199), smallbank.ProcBalance)
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if got.(float64) != 202 {
		t.Fatalf("customer 199 balance = %v on the promoted primary, want 202", got)
	}
}
