package engine_test

import (
	"testing"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// smallbankPrimary opens a primary of customers smallbank customers on
// in-memory storage with the benchmark's group commit, loaded and
// checkpointed.
func smallbankPrimary(t *testing.T, customers int) *engine.Database {
	t.Helper()
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
	return primary
}

// deposit runs deposit_checking(1.0) for customers 0..n-1.
func deposit(t *testing.T, db *engine.Database, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Execute(smallbank.ReactorName(i), smallbank.ProcDepositChecking, 1.0); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
}

// TestFailoverWallTimeSmallbank times Supervisor.Failover onto a caught-up
// semi-sync replica of 100k smallbank customers (in-memory storage, the
// benchmark's group commit) and logs it: promotion finishes the replica's
// recovery in place, so the time does not grow with the loaded state or the
// mirror's length. The promoted primary must serve the last acknowledged
// deposit and a new one.
func TestFailoverWallTimeSmallbank(t *testing.T) {
	const customers = 100_000
	primary := smallbankPrimary(t, customers)
	rep, err := engine.OpenReplica(primary, engine.ReplicaOptions{Ack: engine.AckSemiSync})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	deposit(t, primary, 200)

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

// TestRepointWallTimeSmallbank times Repoint of a caught-up semi-sync
// survivor of 100k smallbank customers onto the replica promoted beside it,
// and logs it: the survivor's mirror is a prefix of the promoted one, so it
// follows in place — no reopen, no reload — and keeps its database. It must
// then serve a deposit made on the new primary.
func TestRepointWallTimeSmallbank(t *testing.T) {
	const customers = 100_000
	primary := smallbankPrimary(t, customers)
	var reps [2]*engine.Replica
	for i := range reps {
		rep, err := engine.OpenReplica(primary, engine.ReplicaOptions{Ack: engine.AckSemiSync})
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		t.Cleanup(rep.Close)
		reps[i] = rep
	}
	deposit(t, primary, 200)
	if err := reps[1].WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := primary.Fence(1); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	promoted, err := engine.PromoteReplica(reps[0], 1)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}
	t.Cleanup(promoted.Close)

	survivor := reps[1]
	db := survivor.Database()
	start := time.Now()
	err = engine.Repoint(survivor, promoted)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Repoint: %v", err)
	}
	t.Logf("Repoint of a caught-up replica of %d smallbank customers: %v", customers, elapsed)
	if survivor.Database() != db {
		t.Fatalf("the survivor's database was replaced: the re-point reopened it")
	}
	deposit(t, promoted, 1)
	if err := survivor.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := survivor.Database().Execute(smallbank.ReactorName(0), smallbank.ProcBalance)
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if got.(float64) != 202 {
		t.Fatalf("customer 0 balance = %v on the survivor, want 202", got)
	}
}
