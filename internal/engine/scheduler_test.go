package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
)

// gateType builds a reactor type whose "wait" procedure blocks until the
// returned gate channel is closed, letting tests hold an executor core at a
// known point while they fill its request queue.
func gateType() (*core.Type, chan struct{}, *atomic.Int64) {
	gate := make(chan struct{})
	var started atomic.Int64
	balance := rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id")
	t := core.NewType("Gate").AddRelation(balance)
	t.AddProcedure("wait", func(ctx core.Context, args core.Args) (any, error) {
		started.Add(1)
		<-gate
		return nil, nil
	})
	t.AddProcedure("noop", func(ctx core.Context, args core.Args) (any, error) {
		return nil, nil
	})
	return t, gate, &started
}

func openGate(t *testing.T, cfg Config) (*Database, func(), *atomic.Int64) {
	t.Helper()
	typ, gate, started := gateType()
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Gate", "g0")
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	openGate := sync.OnceFunc(func() { close(gate) })
	// Open the gate before closing the database so a failing test cannot
	// deadlock Close waiting on gated transactions.
	t.Cleanup(db.Close)
	t.Cleanup(openGate)
	return db, openGate, started
}

func waitFor(t *testing.T, deadline time.Duration, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", deadline)
}

func TestFailFastAdmissionReturnsErrOverloaded(t *testing.T) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		QueueDepth:            2,
		Admission:             AdmissionFail,
	}
	db, openGate, started := openGate(t, cfg)

	// Occupy the single executor core.
	results := make(chan error, 32)
	go func() { _, err := db.Execute("g0", "wait"); results <- err }()
	waitFor(t, 5*time.Second, func() bool { return started.Load() == 1 })

	// Flood the executor: one request is running, one may be in the run
	// loop's hand, QueueDepth more can wait; the rest must be rejected.
	const flood = 20
	for i := 0; i < flood; i++ {
		go func() { _, err := db.Execute("g0", "wait"); results <- err }()
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, qs := range db.QueueStats() {
			if qs.Rejected > 0 {
				return true
			}
		}
		return false
	})

	openGate()
	var rejected, completed int
	for i := 0; i < flood+1; i++ {
		select {
		case err := <-results:
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for results (%d completed, %d rejected)", completed, rejected)
		}
	}
	if rejected == 0 {
		t.Fatal("expected at least one ErrOverloaded rejection")
	}
	if completed == 0 {
		t.Fatal("expected admitted requests to complete")
	}
	qs := db.QueueStats()[0]
	if qs.Rejected != int64(rejected) {
		t.Fatalf("QueueStats.Rejected = %d, want %d", qs.Rejected, rejected)
	}
	if qs.Enqueued != int64(completed) {
		t.Fatalf("QueueStats.Enqueued = %d, want %d", qs.Enqueued, completed)
	}
}

func TestBlockingAdmissionAppliesBackpressure(t *testing.T) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		QueueDepth:            1,
		Admission:             AdmissionBlock,
	}
	db, openGate, started := openGate(t, cfg)

	const clients = 8
	results := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() { _, err := db.Execute("g0", "wait"); results <- err }()
	}
	// All clients block (running, queued, or waiting for a queue slot); none
	// may be rejected under the blocking policy.
	waitFor(t, 5*time.Second, func() bool { return started.Load() >= 1 })
	openGate()
	for i := 0; i < clients; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("blocking admission must not fail requests: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for blocked clients to finish")
		}
	}
	qs := db.QueueStats()[0]
	if qs.Rejected != 0 {
		t.Fatalf("QueueStats.Rejected = %d, want 0", qs.Rejected)
	}
	if qs.Enqueued != clients {
		t.Fatalf("QueueStats.Enqueued = %d, want %d", qs.Enqueued, clients)
	}
	if qs.Wait.Count != clients {
		t.Fatalf("wait histogram count = %d, want %d", qs.Wait.Count, clients)
	}
}

func TestQueueWaitAndDepthStatsPopulated(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(2)
	db := openAccounts(t, 4, 100, cfg)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Execute(accountNames(4)[c], "credit", 1.0); err != nil {
					t.Errorf("credit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var enq, waits int64
	for _, qs := range db.QueueStats() {
		enq += qs.Enqueued
		waits += qs.Wait.Count
		if qs.Rejected != 0 {
			t.Fatalf("unexpected rejections: %+v", qs)
		}
	}
	if enq != 100 {
		t.Fatalf("total enqueued = %d, want 100", enq)
	}
	if waits != 100 {
		t.Fatalf("total wait observations = %d, want 100", waits)
	}
}

func TestExecuteAfterCloseFailsCleanly(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(1)
	db := openAccounts(t, 2, 100, cfg)
	db.Close()
	if _, err := db.Execute("acct-0", "credit", 1.0); err == nil {
		t.Fatal("Execute after Close should fail")
	}
}

func TestGroupCommitCorrectnessAndStats(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(2)
	cfg.GroupCommit = GroupCommitConfig{Enabled: true, MaxBatch: 8, Window: 200 * time.Microsecond}
	db := openAccounts(t, 8, 100, cfg)

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	var okCount atomic.Int64
	names := accountNames(8)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, err := db.Execute(names[c], "credit", 1.0)
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, ErrConflict):
				default:
					t.Errorf("credit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Distinct accounts: no conflicts expected, every credit must commit and
	// be visible.
	if okCount.Load() != clients*perClient {
		t.Fatalf("committed %d credits, want %d", okCount.Load(), clients*perClient)
	}
	var total float64
	for _, n := range names {
		total += balanceOf(t, db, n)
	}
	if want := float64(8*100 + clients*perClient); total != want {
		t.Fatalf("total balance = %v, want %v", total, want)
	}

	gcs := db.GroupCommitStats()[0]
	if gcs.Txns != clients*perClient {
		t.Fatalf("group-commit txns = %d, want %d", gcs.Txns, clients*perClient)
	}
	if gcs.Batches == 0 || gcs.Batches > gcs.Txns {
		t.Fatalf("implausible batch count %d for %d txns", gcs.Batches, gcs.Txns)
	}
	if gcs.Largest > 8 {
		t.Fatalf("largest batch %d exceeds MaxBatch 8", gcs.Largest)
	}
	if gcs.BatchSize.Count != int64(gcs.Batches) {
		t.Fatalf("batch-size histogram count %d != batches %d", gcs.BatchSize.Count, gcs.Batches)
	}
}

func TestGroupCommitConflictsStillDetected(t *testing.T) {
	cfg := NewSharedEverythingWithAffinity(2)
	cfg.GroupCommit = GroupCommitConfig{Enabled: true, MaxBatch: 16, Window: 200 * time.Microsecond}
	db := openAccounts(t, 2, 1000, cfg)

	const clients, perClient = 8, 15
	var wg sync.WaitGroup
	var committed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, err := db.Execute("acct-0", "credit", 1.0)
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrConflict):
				default:
					t.Errorf("credit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Serializability: the final balance reflects exactly the committed
	// credits, whatever interleaving group commit produced.
	if got, want := balanceOf(t, db, "acct-0"), 1000+float64(committed.Load()); got != want {
		t.Fatalf("balance = %v, want %v (%d committed)", got, want, committed.Load())
	}
	if committed.Load() == 0 {
		t.Fatal("no transaction committed under contention")
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.QueueDepth != 256 {
		t.Fatalf("default queue depth = %d, want 256", cfg.QueueDepth)
	}
	if cfg.Admission != AdmissionBlock {
		t.Fatalf("default admission = %q, want %q", cfg.Admission, AdmissionBlock)
	}

	bad := Config{Admission: "bogus"}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate should reject unknown admission policy")
	}

	gc := Config{GroupCommit: GroupCommitConfig{Enabled: true}}
	if err := gc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if gc.GroupCommit.MaxBatch != 32 || gc.GroupCommit.Window != 200*time.Microsecond {
		t.Fatalf("group-commit defaults not applied: %+v", gc.GroupCommit)
	}

	st := Config{Steal: StealConfig{Enabled: true}}
	if err := st.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if st.Steal.Ratio != 2 || st.Steal.MinVictimDepth != 2 {
		t.Fatalf("steal defaults not applied: %+v", st.Steal)
	}

	ad := Config{AdaptiveDepth: AdaptiveDepthConfig{Enabled: true}}
	if err := ad.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ad.AdaptiveDepth.TargetP99 != 2*time.Millisecond || ad.AdaptiveDepth.Floor != 2 ||
		ad.AdaptiveDepth.Ceiling != 256 || ad.AdaptiveDepth.Interval != 5*time.Millisecond {
		t.Fatalf("adaptive-depth defaults not applied: %+v", ad.AdaptiveDepth)
	}
	bad = Config{AdaptiveDepth: AdaptiveDepthConfig{Enabled: true, Floor: 16, Ceiling: 8}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate should reject Floor > Ceiling")
	}
}
