package occ

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"reactdb/internal/kv"
)

// testGuard is a minimal ScanGuard for tests that don't need a full rel.Table.
type testGuard struct {
	mu      sync.Mutex
	version atomic.Uint64
}

func (g *testGuard) Version() uint64        { return g.version.Load() }
func (g *testGuard) BumpVersion()           { g.version.Add(1) }
func (g *testGuard) LockStructure()         { g.mu.Lock() }
func (g *testGuard) TryLockStructure() bool { return g.mu.TryLock() }
func (g *testGuard) UnlockStructure()       { g.mu.Unlock() }

func encInt(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func decInt(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}

func TestReadYourOwnWrites(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(1), 0)
	txn := d.Begin()
	data, present, err := txn.Read(rec)
	if err != nil || !present || decInt(data) != 1 {
		t.Fatalf("initial read wrong: %v %v %v", data, present, err)
	}
	if err := txn.Write(rec, []byte("k"), encInt(2), nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, present, err = txn.Read(rec)
	if err != nil || !present || decInt(data) != 2 {
		t.Fatalf("read-own-write wrong: got %d", decInt(data))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got, _, _ := rec.StableRead()
	if decInt(got) != 2 {
		t.Fatalf("committed value = %d, want 2", decInt(got))
	}
}

func TestCommitAssignsIncreasingTIDs(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(0), 0)
	var last uint64
	for i := 0; i < 10; i++ {
		txn := d.Begin()
		if _, _, err := txn.Read(rec); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := txn.Write(rec, []byte("k"), encInt(int64(i)), nil); err != nil {
			t.Fatalf("Write: %v", err)
		}
		tid, err := txn.Commit()
		if err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		if tid <= last {
			t.Fatalf("TIDs not increasing: %d after %d", tid, last)
		}
		if rec.TID() != tid {
			t.Fatalf("record TID %d != assigned %d", rec.TID(), tid)
		}
		last = tid
	}
	committed, aborted := d.Stats()
	if committed != 10 || aborted != 0 {
		t.Fatalf("stats = (%d, %d), want (10, 0)", committed, aborted)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(100), 0)

	t1 := d.Begin()
	t2 := d.Begin()
	v1, _, _ := t1.Read(rec)
	v2, _, _ := t2.Read(rec)
	if err := t1.Write(rec, []byte("k"), encInt(decInt(v1)+1), nil); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(rec, []byte("k"), encInt(decInt(v2)+1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatalf("first committer should succeed: %v", err)
	}
	if _, err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer should hit ErrConflict, got %v", err)
	}
	got, _, _ := rec.StableRead()
	if decInt(got) != 101 {
		t.Fatalf("value = %d, want 101 (no lost update)", decInt(got))
	}
	_, aborted := d.Stats()
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Classic write skew: two records that must sum >= 0; each transaction
	// reads both and decrements one. Serializable execution allows only one.
	d := NewDomain("test")
	a := kv.NewCommittedRecord(encInt(50), 0)
	b := kv.NewCommittedRecord(encInt(50), 0)

	t1 := d.Begin()
	t2 := d.Begin()
	av1, _, _ := t1.Read(a)
	bv1, _, _ := t1.Read(b)
	av2, _, _ := t2.Read(a)
	bv2, _, _ := t2.Read(b)
	if decInt(av1)+decInt(bv1) < 100 || decInt(av2)+decInt(bv2) < 100 {
		t.Fatalf("setup wrong")
	}
	// t1 withdraws 100 from a, t2 withdraws 100 from b.
	if err := t1.Write(a, []byte("a"), encInt(decInt(av1)-100), nil); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(b, []byte("b"), encInt(decInt(bv2)-100), nil); err != nil {
		t.Fatal(err)
	}
	_, err1 := t1.Commit()
	_, err2 := t2.Commit()
	if err1 == nil && err2 == nil {
		t.Fatalf("both write-skew transactions committed; execution not serializable")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(5), 7)
	txn := d.Begin()
	if err := txn.Write(rec, []byte("k"), encInt(99), nil); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	got, tid, _ := rec.StableRead()
	if decInt(got) != 5 || tid != 7 {
		t.Fatalf("abort must leave record untouched, got (%d, %d)", decInt(got), tid)
	}
	if err := txn.Write(rec, []byte("k"), encInt(1), nil); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("writes after abort should fail with ErrTxnClosed, got %v", err)
	}
	if _, _, err := txn.Read(rec); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("reads after abort should fail with ErrTxnClosed, got %v", err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("commit after abort should fail with ErrTxnClosed, got %v", err)
	}
}

func TestInsertVisibilityAndDuplicate(t *testing.T) {
	d := NewDomain("test")
	guard := &testGuard{}
	rec := kv.NewRecord() // as returned by Table.GetOrInsert

	txn := d.Begin()
	if err := txn.Insert(rec, []byte("k"), encInt(42), guard); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// The inserting transaction sees its own insert.
	data, present, _ := txn.Read(rec)
	if !present || decInt(data) != 42 {
		t.Fatalf("inserter cannot see its own insert")
	}
	// Other transactions do not see it before commit.
	other := d.Begin()
	if _, present, _ := other.Read(rec); present {
		t.Fatalf("uncommitted insert visible to another transaction")
	}
	v0 := guard.Version()
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if guard.Version() != v0+1 {
		t.Fatalf("structural version not bumped on insert commit")
	}
	// The concurrent reader that observed "absent" must now fail validation if
	// it tries to commit a write based on that read.
	if err := other.Write(kv.NewCommittedRecord(nil, 0), []byte("other"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("reader of pre-insert state should conflict, got %v", err)
	}

	// Duplicate insert of the same (now committed) record fails immediately.
	dup := d.Begin()
	if err := dup.Insert(rec, []byte("k"), encInt(1), guard); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("expected ErrDuplicateKey, got %v", err)
	}
}

func TestConcurrentInsertSameKeyOnlyOneWins(t *testing.T) {
	d := NewDomain("test")
	guard := &testGuard{}
	rec := kv.NewRecord()

	t1 := d.Begin()
	t2 := d.Begin()
	if err := t1.Insert(rec, []byte("k"), encInt(1), guard); err != nil {
		t.Fatal(err)
	}
	if err := t2.Insert(rec, []byte("k"), encInt(2), guard); err != nil {
		t.Fatal(err)
	}
	_, err1 := t1.Commit()
	_, err2 := t2.Commit()
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one concurrent inserter must win: err1=%v err2=%v", err1, err2)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	d := NewDomain("test")
	guard := &testGuard{}
	rec := kv.NewCommittedRecord(encInt(10), 3)

	txn := d.Begin()
	if _, _, err := txn.Read(rec); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(rec, []byte("k"), guard); err != nil {
		t.Fatal(err)
	}
	if _, present, _ := txn.Read(rec); present {
		t.Fatalf("deleter should not see the deleted row")
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !rec.Absent() {
		t.Fatalf("record should be absent after committed delete")
	}

	// Reinsert through a new transaction (the key's record is reused).
	re := d.Begin()
	if err := re.Insert(rec, []byte("k"), encInt(20), guard); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if _, err := re.Commit(); err != nil {
		t.Fatalf("reinsert commit: %v", err)
	}
	got, _, present := rec.StableRead()
	if !present || decInt(got) != 20 {
		t.Fatalf("reinserted value wrong: %v %v", got, present)
	}
}

func TestScanValidationDetectsPhantom(t *testing.T) {
	d := NewDomain("test")
	guard := &testGuard{}

	scanner := d.Begin()
	if err := scanner.RegisterScan(guard); err != nil {
		t.Fatal(err)
	}
	// A concurrent transaction inserts into the scanned table and commits.
	inserter := d.Begin()
	rec := kv.NewRecord()
	if err := inserter.Insert(rec, []byte("new"), encInt(1), guard); err != nil {
		t.Fatal(err)
	}
	if _, err := inserter.Commit(); err != nil {
		t.Fatal(err)
	}
	// The scanner writes something (to force validation) and must abort.
	out := kv.NewCommittedRecord(encInt(0), 0)
	if err := scanner.Write(out, []byte("out"), encInt(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := scanner.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("phantom should abort the scanner, got %v", err)
	}
}

func TestScanValidationAllowsOwnInserts(t *testing.T) {
	d := NewDomain("test")
	guard := &testGuard{}
	txn := d.Begin()
	if err := txn.RegisterScan(guard); err != nil {
		t.Fatal(err)
	}
	rec := kv.NewRecord()
	if err := txn.Insert(rec, []byte("k"), encInt(1), guard); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("transaction inserting into its own scanned table must commit: %v", err)
	}
}

func TestPrepareAbortPreparedReleasesLocks(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(1), 0)
	txn := d.Begin()
	if _, _, err := txn.Read(rec); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(rec, []byte("k"), encInt(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Prepare(); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if !rec.Locked() {
		t.Fatalf("prepared transaction should hold the record latch")
	}
	if err := txn.AbortPrepared(); err != nil {
		t.Fatalf("AbortPrepared: %v", err)
	}
	if rec.Locked() {
		t.Fatalf("AbortPrepared must release the record latch")
	}
	got, _, _ := rec.StableRead()
	if decInt(got) != 1 {
		t.Fatalf("AbortPrepared must not install writes")
	}
}

func TestPreparedRecordBlocksConcurrentValidation(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(1), 0)

	// Reader observes the record before the writer prepares.
	reader := d.Begin()
	if _, _, err := reader.Read(rec); err != nil {
		t.Fatal(err)
	}

	writer := d.Begin()
	if _, _, err := writer.Read(rec); err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(rec, []byte("k"), encInt(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := writer.Prepare(); err != nil {
		t.Fatal(err)
	}

	// While the writer holds the record latch (e.g. during a 2PC prepare
	// window) the reader must fail validation of its earlier read.
	dep := kv.NewCommittedRecord(encInt(0), 0)
	if err := reader.Write(dep, []byte("dep"), encInt(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("validation against a prepared record should conflict, got %v", err)
	}
	if _, err := writer.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	got, _, _ := rec.StableRead()
	if decInt(got) != 2 {
		t.Fatalf("writer's update lost: %d", decInt(got))
	}
}

func TestReadOnlyTransactionCommitsWithoutTIDAdvance(t *testing.T) {
	d := NewDomain("test")
	rec := kv.NewCommittedRecord(encInt(1), 0)
	txn := d.Begin()
	if _, _, err := txn.Read(rec); err != nil {
		t.Fatal(err)
	}
	if !txn.ReadOnly() {
		t.Fatalf("transaction with no writes should be read-only")
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	if rec.TID() != 0 {
		t.Fatalf("read-only commit must not touch record versions")
	}
}

// TestSerializabilityStressBankTransfers runs many concurrent transfer
// transactions between accounts in one domain and checks that the total
// balance is conserved — the core serializability invariant the paper relies
// on for Smallbank.
func TestSerializabilityStressBankTransfers(t *testing.T) {
	const (
		accounts  = 32
		workers   = 8
		transfers = 300
		initial   = int64(1000)
	)
	d := NewDomain("bank")
	recs := make([]*kv.Record, accounts)
	for i := range recs {
		recs[i] = kv.NewCommittedRecord(encInt(initial), 0)
	}
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				v := int((rng >> 33) % int64(n))
				if v < 0 {
					v += n
				}
				return v
			}
			for i := 0; i < transfers; i++ {
				src := next(accounts)
				dst := next(accounts)
				if src == dst {
					continue
				}
				amt := int64(next(10) + 1)
				txn := d.Begin()
				sv, _, _ := txn.Read(recs[src])
				dv, _, _ := txn.Read(recs[dst])
				if decInt(sv) < amt {
					txn.Abort()
					continue
				}
				_ = txn.Write(recs[src], []byte(fmt.Sprintf("a%d", src)), encInt(decInt(sv)-amt), nil)
				_ = txn.Write(recs[dst], []byte(fmt.Sprintf("a%d", dst)), encInt(decInt(dv)+amt), nil)
				if _, err := txn.Commit(); err == nil {
					committed.Add(1)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	var total int64
	for _, rec := range recs {
		data, _, _ := rec.StableRead()
		v := decInt(data)
		if v < 0 {
			t.Fatalf("negative balance %d", v)
		}
		total += v
	}
	if total != accounts*initial {
		t.Fatalf("total balance %d, want %d (money created or destroyed)", total, accounts*initial)
	}
	if committed.Load() == 0 {
		t.Fatalf("no transfer committed; stress test did not exercise commits")
	}
}

func TestDomainEpochAdvance(t *testing.T) {
	d := NewDomain("test")
	e0 := d.Epoch()
	// A recovered TID of the current epoch moves the domain past that epoch.
	d.ObserveRecoveredTID(e0<<epochBits | 7)
	if d.Epoch() != e0+1 {
		t.Fatalf("epoch did not advance")
	}
	// TIDs from the new epoch must exceed TIDs from the old epoch.
	rec := kv.NewCommittedRecord(encInt(0), 0)
	txn := d.Begin()
	_, _, _ = txn.Read(rec)
	_ = txn.Write(rec, []byte("k"), encInt(1), nil)
	tid, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if tid>>epochBits != d.Epoch() {
		t.Fatalf("TID epoch bits = %d, want %d", tid>>epochBits, d.Epoch())
	}
	// Reading a TID from a later epoch makes nextTID catch the epoch up.
	later := (d.Epoch()+2)<<epochBits | 1
	rec = kv.NewCommittedRecord(encInt(0), later)
	txn = d.Begin()
	_, _, _ = txn.Read(rec)
	_ = txn.Write(rec, []byte("k"), encInt(1), nil)
	if tid, err = txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if tid <= later || tid>>epochBits != d.Epoch() || d.Epoch() != e0+3 {
		t.Fatalf("TID %x after reading %x: epoch bits %d, domain epoch %d, want %d",
			tid, later, tid>>epochBits, d.Epoch(), e0+3)
	}
}
