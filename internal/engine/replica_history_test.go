package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/randutil"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// This file extends the black-box history checker to replica reads: while a
// concurrent multi-container banking workload runs on the primary, auditors
// take serializable snapshots on a tailing replica. The replica is treated as
// a black box — the checker only sees operation outcomes — and verifies the
// paper-level contract of snapshot-consistent read scale-out:
//
//   - every committed replica audit observes the conserved total (a torn 2PC
//     group — debit shipped, credit not — or a mid-apply read would break it);
//   - after the writers quiesce and the replica catches up, its per-account
//     state equals the primary's exactly and is reproducible from the
//     acknowledged operation history (the replica converged on the real
//     committed prefix, not merely on something internally consistent).
//
// It runs under the CI -race job together with the rest of internal/engine.

func TestBlackBoxReplicaHistorySerializableBanking(t *testing.T) {
	const (
		accounts   = 8
		initial    = int64(1000)
		workers    = 4
		opsPer     = 50
		containers = 2
	)
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct-%d", i)
	}
	def := core.NewDatabaseDef().MustAddType(bankAccountType())
	def.MustDeclareReactors("Account", names...)

	storage := wal.NewMemStorage()
	cfg := Config{
		Containers:            containers,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 8, Window: 200 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
		Placement: func(reactor string) int {
			var id int
			fmt.Sscanf(reactor, "acct-%d", &id)
			return id % containers
		},
	}
	db := MustOpen(def, cfg)
	t.Cleanup(db.Close)
	for i := 0; i < accounts; i++ {
		db.MustLoad(names[i], "bal", rel.Row{int64(0), initial})
	}
	// Loaded rows are not logged: checkpoint so the replica bootstrap
	// installs them from the blob (the checkpoint-transfer path).
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	rep, err := OpenReplica(db, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)

	histories := make([][]histOp, workers)
	var transfersDone atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randutil.New(int64(w) + 101)
			for i := 0; i < opsPer; i++ {
				src := randutil.UniformInt(rng, 0, accounts-1)
				dst := randutil.UniformInt(rng, 0, accounts-2)
				if dst >= src {
					dst++
				}
				amt := int64(randutil.UniformInt(rng, 1, 10))
				_, err := db.Execute(names[src], "xfer", names[dst], amt)
				if err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("xfer %d->%d: %v", src, dst, err)
					return
				}
				histories[w] = append(histories[w], histOp{src: src, dst: dst, amt: amt, acked: err == nil})
			}
		}(w)
	}

	// The replica auditor: serializable multi-container snapshots taken on
	// the replica while apply rounds race underneath. OCC validation against
	// the apply rounds means a committed audit can only have observed a round
	// boundary; conflicting attempts retry like any OCC transaction.
	var replicaAudits []int64
	auditorDone := make(chan struct{})
	go func() {
		defer close(auditorDone)
		for !transfersDone.Load() {
			res, err := rep.Database().Execute(names[0], "audit", names)
			if err != nil {
				if errors.Is(err, ErrConflict) {
					continue
				}
				t.Errorf("replica audit: %v", err)
				return
			}
			replicaAudits = append(replicaAudits, res.(int64))
		}
	}()
	wg.Wait()
	transfersDone.Store(true)
	<-auditorDone
	if t.Failed() {
		return
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	// A quiescent, caught-up audit always commits and joins the history.
	res, err := rep.Database().Execute(names[0], "audit", names)
	if err != nil {
		t.Fatalf("quiescent replica audit: %v", err)
	}
	replicaAudits = append(replicaAudits, res.(int64))

	// Check 1: every committed replica audit observed the conserved total.
	want := initial * accounts
	for i, total := range replicaAudits {
		if total != want {
			t.Fatalf("replica audit %d observed total %d, want %d (torn or mid-apply snapshot)", i, total, want)
		}
	}

	// Check 2: the caught-up replica state IS the acknowledged history's
	// outcome, account by account, and matches the primary exactly.
	expected := make([]int64, accounts)
	for i := range expected {
		expected[i] = initial
	}
	acked := 0
	for _, h := range histories {
		for _, op := range h {
			if op.acked {
				expected[op.src] -= op.amt
				expected[op.dst] += op.amt
				acked++
			}
		}
	}
	if acked == 0 {
		t.Fatal("no transfer was acknowledged; the workload exercised nothing")
	}
	var sum int64
	for i := 0; i < accounts; i++ {
		prow, err := db.ReadRow(names[i], "bal", int64(0))
		if err != nil || prow == nil {
			t.Fatalf("primary ReadRow(%s): %v", names[i], err)
		}
		rrow, err := rep.Database().ReadRow(names[i], "bal", int64(0))
		if err != nil || rrow == nil {
			t.Fatalf("replica ReadRow(%s): %v", names[i], err)
		}
		pv, rv := prow.Int64(1), rrow.Int64(1)
		if rv != pv {
			t.Fatalf("account %d: replica %d != primary %d after catch-up", i, rv, pv)
		}
		if rv != expected[i] {
			t.Fatalf("account %d: replica balance %d, want %d from the acknowledged history", i, rv, expected[i])
		}
		sum += rv
	}
	if sum != want {
		t.Fatalf("replica final total %d, want %d", sum, want)
	}
}
