package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/rel"
)

func TestAbortfAndIsUserAbort(t *testing.T) {
	err := Abortf("balance %d too low", 5)
	if !IsUserAbort(err) {
		t.Fatalf("Abortf result should be a user abort")
	}
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("Abortf result should wrap ErrUserAbort")
	}
	if IsUserAbort(errors.New("other")) {
		t.Fatalf("unrelated errors are not user aborts")
	}
}

func TestArgsAccessors(t *testing.T) {
	a := Args{int64(1), 2, 2.5, "s", true, []string{"x"}, []int64{7}}
	if a.Int64(0) != 1 || a.Int64(1) != 2 {
		t.Fatalf("Int64 accessor wrong")
	}
	if a.Float64(2) != 2.5 || a.Float64(1) != 2 {
		t.Fatalf("Float64 accessor wrong")
	}
	if a.String(3) != "s" || !a.Bool(4) {
		t.Fatalf("String/Bool accessor wrong")
	}
	if len(a.Strings(5)) != 1 || len(a.Int64s(6)) != 1 {
		t.Fatalf("slice accessors wrong")
	}
	if a.Len() != 7 {
		t.Fatalf("Len wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong-typed access should panic")
		}
	}()
	_ = a.Int64(3)
}

func TestFutureResolveBeforeGet(t *testing.T) {
	f := ResolvedFuture(int64(7), nil)
	if !f.Resolved() {
		t.Fatalf("future should be resolved")
	}
	v, err := f.Get()
	if err != nil || v.(int64) != 7 {
		t.Fatalf("Get = (%v, %v)", v, err)
	}
	if n, err := f.GetInt64(); err != nil || n != 7 {
		t.Fatalf("GetInt64 = (%v, %v)", n, err)
	}
}

func TestFutureGetBlocksUntilResolve(t *testing.T) {
	f := NewFuture()
	go func() {
		time.Sleep(5 * time.Millisecond)
		f.Resolve(3.5, nil)
	}()
	v, err := f.GetFloat64()
	if err != nil || v != 3.5 {
		t.Fatalf("GetFloat64 = (%v, %v)", v, err)
	}
}

// TestFutureZeroValueWakesEveryWaiter: the runtime embeds a root transaction's
// future in the transaction's own state, so the zero value must be a working
// unresolved future — including with several goroutines blocked in Get.
func TestFutureZeroValueWakesEveryWaiter(t *testing.T) {
	var f Future
	const waiters = 8
	got := make(chan any, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, _ := f.Get()
			got <- v
		}()
	}
	time.Sleep(5 * time.Millisecond) // let most of them block first
	f.Resolve("done", nil)
	for i := 0; i < waiters; i++ {
		select {
		case v := <-got:
			if v != "done" {
				t.Fatalf("waiter got %v", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters never woke", waiters-i, waiters)
		}
	}
}

func TestFutureDoubleResolveIsNoop(t *testing.T) {
	f := NewFuture()
	f.Resolve(1, nil)
	f.Resolve(2, errors.New("late"))
	v, err := f.Get()
	if err != nil || v.(int) != 1 {
		t.Fatalf("second resolve must not override the first")
	}
}

func TestFutureWaitHooksFireOnlyWhenBlocking(t *testing.T) {
	var waits, resumes atomic.Int32
	f := NewFuture()
	f.SetWaitHooks(func() { waits.Add(1) }, func() { resumes.Add(1) })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := f.Get(); err != nil {
			t.Errorf("Get: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	f.Resolve(nil, nil)
	wg.Wait()
	if waits.Load() != 1 || resumes.Load() != 1 {
		t.Fatalf("hooks fired (%d, %d), want (1, 1)", waits.Load(), resumes.Load())
	}

	// Already-resolved future: hooks must not fire.
	waits.Store(0)
	resumes.Store(0)
	if _, err := f.Get(); err != nil {
		t.Fatal(err)
	}
	if waits.Load() != 0 || resumes.Load() != 0 {
		t.Fatalf("hooks fired on non-blocking Get")
	}
}

func TestFutureTypedAccessorErrors(t *testing.T) {
	f := ResolvedFuture("string", nil)
	if _, err := f.GetFloat64(); err == nil {
		t.Fatalf("GetFloat64 of a string should fail")
	}
	if _, err := f.GetInt64(); err == nil {
		t.Fatalf("GetInt64 of a string should fail")
	}
	fe := ResolvedFuture(nil, Abortf("boom"))
	if err := fe.Err(); !IsUserAbort(err) {
		t.Fatalf("Err should surface the abort")
	}
}

func TestWaitAllReturnsFirstError(t *testing.T) {
	ok := ResolvedFuture(1, nil)
	bad := ResolvedFuture(nil, Abortf("bad"))
	worse := ResolvedFuture(nil, errors.New("worse"))
	err := WaitAll(ok, nil, bad, worse)
	if !IsUserAbort(err) {
		t.Fatalf("WaitAll should return the first error, got %v", err)
	}
	if err := WaitAll(ok); err != nil {
		t.Fatalf("WaitAll over successful futures should be nil")
	}
}

func testType(name string) *Type {
	schema := rel.MustSchema("t", []rel.Column{{Name: "k", Type: rel.Int64}}, "k")
	return NewType(name).
		AddRelation(schema).
		AddProcedure("noop", func(ctx Context, args Args) (any, error) { return nil, nil })
}

func TestTypeValidate(t *testing.T) {
	if err := testType("ok").Validate(); err != nil {
		t.Fatalf("valid type rejected: %v", err)
	}
	if err := NewType("").Validate(); err == nil {
		t.Fatalf("unnamed type accepted")
	}
	if err := NewType("norel").AddProcedure("p", nil).Validate(); err == nil {
		t.Fatalf("type without relations accepted")
	}
	noProc := NewType("noproc").AddRelation(rel.MustSchema("t", []rel.Column{{Name: "k", Type: rel.Int64}}, "k"))
	if err := noProc.Validate(); err == nil {
		t.Fatalf("type without procedures accepted")
	}
}

// TestAddRelationRejectsDuplicate pins the declaration-time check: a second
// relation with the same name panics in AddRelation itself, not at
// DatabaseDef validation or first use.
func TestAddRelationRejectsDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate relation name accepted at declaration time")
		}
	}()
	dup := testType("dup")
	dup.AddRelation(rel.MustSchema("t", []rel.Column{{Name: "k", Type: rel.Int64}}, "k"))
}

func TestTypeProcedureLookup(t *testing.T) {
	ty := testType("x")
	if ty.Procedure("noop") == nil {
		t.Fatalf("registered procedure not found")
	}
	if ty.Procedure("missing") != nil {
		t.Fatalf("missing procedure should be nil")
	}
	names := ty.ProcedureNames()
	if len(names) != 1 || names[0] != "noop" {
		t.Fatalf("ProcedureNames = %v", names)
	}
}

func TestDatabaseDefDeclarations(t *testing.T) {
	def := NewDatabaseDef()
	if err := def.Validate(); err == nil {
		t.Fatalf("empty definition should not validate")
	}
	def.MustAddType(testType("Customer"))
	if err := def.AddType(testType("Customer")); err == nil {
		t.Fatalf("duplicate type accepted")
	}
	if err := def.DeclareReactor("c1", "Missing"); err == nil {
		t.Fatalf("reactor with undeclared type accepted")
	}
	def.MustDeclareReactors("Customer", "c1", "c2", "c3")
	if err := def.DeclareReactor("c1", "Customer"); err == nil {
		t.Fatalf("duplicate reactor accepted")
	}
	if err := def.DeclareReactor("", "Customer"); err == nil {
		t.Fatalf("unnamed reactor accepted")
	}
	if def.NumReactors() != 3 {
		t.Fatalf("NumReactors = %d, want 3", def.NumReactors())
	}
	if !def.HasReactor("c2") || def.HasReactor("zzz") {
		t.Fatalf("HasReactor wrong")
	}
	if def.TypeOf("c1") == nil || def.TypeOf("c1").Name() != "Customer" {
		t.Fatalf("TypeOf wrong")
	}
	if def.TypeOf("zzz") != nil {
		t.Fatalf("TypeOf of unknown reactor should be nil")
	}
	if def.Type("Customer") == nil {
		t.Fatalf("Type lookup failed")
	}
	order := def.Reactors()
	if len(order) != 3 || order[0] != "c1" || order[2] != "c3" {
		t.Fatalf("Reactors order wrong: %v", order)
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("valid definition rejected: %v", err)
	}
}

// TestInternReturnsTheDefinitionsOwnStrings: a wire decoder turns the names it
// holds as bytes into strings through Intern, which must not allocate for
// anything the definition declares and must still spell what it does not.
func TestInternReturnsTheDefinitionsOwnStrings(t *testing.T) {
	schema := rel.MustSchema("t", []rel.Column{{Name: "k", Type: rel.Int64}}, "k")
	noop := func(Context, Args) (any, error) { return nil, nil }
	def := NewDatabaseDef().MustAddType(NewType("T").AddRelation(schema).AddProcedure("read", noop))
	def.MustDeclareReactors("T", "alpha", "beta")

	reactor, procedure := []byte("beta"), []byte("read")
	var r, p string
	if allocs := testing.AllocsPerRun(100, func() { r, p = def.Intern(reactor, procedure) }); allocs != 0 {
		t.Fatalf("Intern of declared names allocated %.0f times", allocs)
	}
	if r != "beta" || p != "read" {
		t.Fatalf("Intern = (%q, %q)", r, p)
	}
	if r, p := def.Intern([]byte("beta"), []byte("nosuch")); r != "beta" || p != "nosuch" {
		t.Fatalf("unknown procedure: Intern = (%q, %q)", r, p)
	}
	if r, p := def.Intern([]byte("gamma"), []byte("read")); r != "gamma" || p != "read" {
		t.Fatalf("unknown reactor: Intern = (%q, %q)", r, p)
	}
	if def.TypeOf("alpha") != def.Type("T") || def.TypeOf("gamma") != nil {
		t.Fatalf("TypeOf disagrees with the declarations")
	}
}

func TestActiveSetSafetyCondition(t *testing.T) {
	as := new(ActiveSet)
	if err := as.Enter("A"); err != nil {
		t.Fatalf("first Enter failed: %v", err)
	}
	if err := as.Enter("B"); err != nil {
		t.Fatalf("Enter on a different reactor failed: %v", err)
	}
	if err := as.Enter("A"); !errors.Is(err, ErrDangerousStructure) {
		t.Fatalf("second Enter on the same reactor should be dangerous, got %v", err)
	}
	if !as.ActiveOn("A") || as.Size() != 2 {
		t.Fatalf("active set bookkeeping wrong")
	}
	as.Exit("A")
	if as.ActiveOn("A") {
		t.Fatalf("reactor should be inactive after Exit")
	}
	if err := as.Enter("A"); err != nil {
		t.Fatalf("Enter after Exit should succeed: %v", err)
	}
	// Exit of a reactor that is not active is a no-op.
	as.Exit("never-entered")

	// A fan-out wider than the inline array spills into the map and obeys the
	// same rules there, wherever Exit leaves the holes.
	wide := []string{"C", "D", "E", "F", "G"}
	for _, r := range wide {
		if err := as.Enter(r); err != nil {
			t.Fatalf("Enter(%s) failed: %v", r, err)
		}
	}
	if as.Size() != 2+len(wide) {
		t.Fatalf("Size = %d, want %d", as.Size(), 2+len(wide))
	}
	for _, r := range append([]string{"A", "B"}, wide...) {
		if err := as.Enter(r); !errors.Is(err, ErrDangerousStructure) {
			t.Fatalf("second Enter(%s) should be dangerous, got %v", r, err)
		}
	}
	for _, r := range []string{"G", "A", "D"} {
		as.Exit(r)
		if as.ActiveOn(r) {
			t.Fatalf("%s still active after Exit", r)
		}
		if err := as.Enter(r); err != nil {
			t.Fatalf("Enter(%s) after Exit failed: %v", r, err)
		}
	}
	if as.Size() != 2+len(wide) {
		t.Fatalf("Size after churn = %d, want %d", as.Size(), 2+len(wide))
	}
}

func TestActiveSetConcurrentEnterSingleWinner(t *testing.T) {
	as := new(ActiveSet)
	const goroutines = 16
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := as.Enter("hot"); err == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d concurrent Enters succeeded, want exactly 1", wins.Load())
	}
}
