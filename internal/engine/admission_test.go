package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
)

// inFlightOf returns the total admission tokens currently held across all
// executors.
func inFlightOf(db *Database) int {
	total := 0
	for _, qs := range db.QueueStats() {
		total += qs.InFlight
	}
	return total
}

// TestAdmissionTokenHeldAcrossYield pins the semantic the in-flight tokens
// add over the old waiting-queue bound: a root transaction that started and
// cooperatively yielded (blocked on a remote sub-transaction) still occupies
// its admission slot, so QueueDepth bounds total in-flight work. Under the
// old scheduler the yielded request left the queue and a full new wave could
// be admitted behind it.
func TestAdmissionTokenHeldAcrossYield(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	balance := rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id")
	typ := core.NewType("Yield").AddRelation(balance)
	started := make(chan struct{}, 16)
	typ.AddProcedure("call_remote_wait", func(ctx core.Context, args core.Args) (any, error) {
		fut, err := ctx.Call(args.String(0), "wait")
		if err != nil {
			return nil, err
		}
		return fut.Get()
	})
	typ.AddProcedure("wait", func(ctx core.Context, args core.Args) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	})
	typ.AddProcedure("noop", func(ctx core.Context, args core.Args) (any, error) {
		return nil, nil
	})
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Yield", "y0", "y1")

	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		QueueDepth:            1,
		Admission:             AdmissionFail,
		Placement: func(reactor string) int {
			if reactor == "y0" {
				return 0
			}
			return 1
		},
	}
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	results := make(chan error, 1)
	go func() {
		_, err := db.Execute("y0", "call_remote_wait", "y1")
		results <- err
	}()
	<-started // the root has yielded y0's core, its request queue is empty

	// The yielded root still holds y0's only token: a new root must be shed
	// even though nothing is waiting in the queue.
	if _, err := db.Execute("y0", "noop"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Execute while a yielded root holds the token: err = %v, want ErrOverloaded", err)
	}
	openGate()
	if err := <-results; err != nil {
		t.Fatalf("yielded root: %v", err)
	}
	// Token returned: the same request is admitted now.
	if _, err := db.Execute("y0", "noop"); err != nil {
		t.Fatalf("Execute after token release: %v", err)
	}
	if got := inFlightOf(db); got != 0 {
		t.Fatalf("in-flight tokens = %d after drain, want 0", got)
	}
}

// TestAdmissionTokenReleasedOnAbort drives aborting transactions through a
// depth-1 executor under fail-fast admission: a leaked token would turn every
// request after the first abort into ErrOverloaded.
func TestAdmissionTokenReleasedOnAbort(t *testing.T) {
	typ := core.NewType("Aborter").AddRelation(rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id"))
	typ.AddProcedure("fail", func(ctx core.Context, args core.Args) (any, error) {
		return nil, core.Abortf("application abort")
	})
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Aborter", "a0")
	cfg := Config{Containers: 1, ExecutorsPerContainer: 1, QueueDepth: 1, Admission: AdmissionFail}
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	for i := 0; i < 50; i++ {
		_, err := db.Execute("a0", "fail")
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("iteration %d rejected: an aborting transaction leaked its admission token", i)
		}
		if !core.IsUserAbort(err) {
			t.Fatalf("iteration %d: err = %v, want user abort", i, err)
		}
	}
	if got := inFlightOf(db); got != 0 {
		t.Fatalf("in-flight tokens = %d after aborts, want 0", got)
	}
}

// TestAdmissionTokenReleasedOnPanic proves a panicking reactor procedure
// cannot strand an admission slot.
func TestAdmissionTokenReleasedOnPanic(t *testing.T) {
	typ := core.NewType("Panicker").AddRelation(rel.MustSchema("balance",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "amount", Type: rel.Float64}}, "id"))
	typ.AddProcedure("boom", func(ctx core.Context, args core.Args) (any, error) {
		panic("kaboom")
	})
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Panicker", "p0")
	cfg := Config{Containers: 1, ExecutorsPerContainer: 1, QueueDepth: 1, Admission: AdmissionFail}
	db, err := Open(def, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	for i := 0; i < 50; i++ {
		_, err := db.Execute("p0", "boom")
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("iteration %d rejected: a panicking transaction leaked its admission token", i)
		}
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("iteration %d: err = %v, want procedure panic error", i, err)
		}
	}
	if got := inFlightOf(db); got != 0 {
		t.Fatalf("in-flight tokens = %d after panics, want 0", got)
	}
}

// TestAdmissionTokenNotConsumedOnOverload proves a request shed with
// ErrOverloaded does not consume a token: after the overload clears, the full
// depth is available again.
func TestAdmissionTokenNotConsumedOnOverload(t *testing.T) {
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 1,
		QueueDepth:            2,
		Admission:             AdmissionFail,
	}
	db, openGate, started := openGate(t, cfg)

	results := make(chan error, 64)
	go func() { _, err := db.Execute("g0", "wait"); results <- err }()
	waitFor(t, 5*time.Second, func() bool { return started.Load() == 1 })
	// Flood: exactly one more token exists; everything else must shed.
	const flood = 30
	for i := 0; i < flood; i++ {
		go func() { _, err := db.Execute("g0", "wait"); results <- err }()
	}
	waitFor(t, 5*time.Second, func() bool {
		var rejected int64
		for _, qs := range db.QueueStats() {
			rejected += qs.Rejected
		}
		return rejected >= flood-1
	})
	openGate()
	for i := 0; i < flood+1; i++ {
		<-results
	}
	if got := inFlightOf(db); got != 0 {
		t.Fatalf("in-flight tokens = %d after drain, want 0 (rejections must not consume tokens)", got)
	}
	// The full depth is usable again.
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("g0", "noop"); err != nil {
			t.Fatalf("post-overload execute %d: %v", i, err)
		}
	}
}
