package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// execWithWatchdog runs one Execute and fails the test if it does not
// complete within the deadline — the symptom of a 2PC abort path that leaked
// a prepared participant's OCC locks (Record.Lock spins forever on a leaked
// latch). The returned error is the Execute outcome.
func execWithWatchdog(t *testing.T, db *Database, reactor, proc string, args ...any) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := db.Execute(reactor, proc, args...)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s.%s hung: a failed 2PC left OCC locks held", reactor, proc)
		return nil
	}
}

// twoContainerCfg places kv0 on container 0 and kv1 on container 1 over the
// given storage, with no window, so each share of a serial test's 2PC round
// is a batch of its own: the writes and fsyncs of each container are
// deterministic for fault injection, though the two containers force
// concurrently.
func twoContainerCfg(storage wal.Storage) Config {
	return Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
		Placement: func(reactor string) int {
			if reactor == "kv0" {
				return 0
			}
			return 1
		},
	}
}

// TestTwoPCPrepareAppendFailureReleasesLocks is the abort-path regression
// test: participant 1's prepare-record append fails mid-protocol, after
// participant 0 already holds its OCC locks and its prepare record is in its
// log. Every participant must be released — a follow-up transaction on the
// very keys the failed 2PC locked must complete — and the failed transaction
// must be absent everywhere, both live and after recovery.
func TestTwoPCPrepareAppendFailureReleasesLocks(t *testing.T) {
	mem := wal.NewMemStorage()
	var armed atomic.Bool
	storage := &failingSubStorage{
		Storage:  wal.Storage(mem),
		failName: "container-1",
		armed:    &armed,
		errVal:   errors.New("injected log device failure"),
	}
	def := kvDef("kv0", "kv1")
	db := MustOpen(def, twoContainerCfg(storage))

	armed.Store(true)
	if err := execWithWatchdog(t, db, "kv0", "copyTo", "kv1", int64(2), int64(20)); err == nil {
		t.Fatal("copyTo succeeded despite the injected prepare append failure")
	}
	armed.Store(false)

	// The same keys must be writable immediately: leaked prepare locks would
	// hang these forever. Container 1's log wedged on the failed append
	// (fail-stop), so its write completes with an error; container 0's
	// succeeds outright.
	if err := execWithWatchdog(t, db, "kv0", "put", int64(2), int64(200)); err != nil {
		t.Fatalf("put on kv0 after failed 2PC: %v", err)
	}
	if err := execWithWatchdog(t, db, "kv1", "put", int64(2), int64(201)); err == nil {
		t.Fatal("put on kv1 succeeded although its log wedged fail-stop")
	}
	db.Close()

	// Recovery sees container 0's durable (retracted, undecided) prepare
	// record and no decision: presumed abort, nothing resurrected.
	db2 := MustOpen(def, twoContainerCfg(mem))
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 2); !present || v != 200 {
		t.Fatalf("kv0[2] = (%d, %v), want the follow-up put's 200", v, present)
	}
	if v, present := readV(t, db2, "kv1", 2); present {
		t.Fatalf("aborted 2PC write resurrected on kv1 with %d", v)
	}
}

// failNthWriteStorage fails exactly the Nth segment write issued within one
// named sub-storage, counting across segments — the shape of a log device
// failing at a chosen protocol step while every other container stays
// healthy.
type failNthWriteStorage struct {
	wal.Storage
	name     string
	failName string
	writes   *atomic.Int64
	failOn   int64
	errVal   error
}

func (s *failNthWriteStorage) Sub(name string) wal.Storage {
	return &failNthWriteStorage{
		Storage:  s.Storage.Sub(name),
		name:     name,
		failName: s.failName,
		writes:   s.writes,
		failOn:   s.failOn,
		errVal:   s.errVal,
	}
}

func (s *failNthWriteStorage) Create(index uint64) (wal.SegmentFile, error) {
	f, err := s.Storage.Create(index)
	if err != nil {
		return nil, err
	}
	return &failNthSegmentFile{SegmentFile: f, owner: s}, nil
}

type failNthSegmentFile struct {
	wal.SegmentFile
	owner *failNthWriteStorage
}

func (f *failNthSegmentFile) Write(p []byte) (int, error) {
	if f.owner.name == f.owner.failName && f.owner.writes.Add(1) == f.owner.failOn {
		return 0, f.owner.errVal
	}
	return f.SegmentFile.Write(p)
}

// TestTwoPCDecisionFailurePresumedAbort fails the coordinator's decision
// append while the other participant's prepare is forced in the same round:
// the hardest abort case. The client gets an error, every lock is released,
// and recovery — finding the other participant's prepare retracted and no
// decision — presumes abort on both, never a subset.
func TestTwoPCDecisionFailurePresumedAbort(t *testing.T) {
	mem := wal.NewMemStorage()
	var writes atomic.Int64
	// On container 0 (the coordinator: the lowest writer), write 1 carries
	// the prepare record and the decision record together.
	storage := &failNthWriteStorage{
		Storage:  wal.Storage(mem),
		failName: "container-0",
		writes:   &writes,
		failOn:   1,
		errVal:   errors.New("injected decision append failure"),
	}
	def := kvDef("kv0", "kv1")
	db := MustOpen(def, twoContainerCfg(storage))

	if err := execWithWatchdog(t, db, "kv0", "copyTo", "kv1", int64(2), int64(20)); err == nil {
		t.Fatal("copyTo succeeded despite the injected decision append failure")
	}
	// No participant may stay locked; kv1's log is healthy and must accept
	// the same key immediately, and the coordinator's log — which salvaged
	// the failed batch by retracting it on a fresh segment — keeps serving.
	if err := execWithWatchdog(t, db, "kv1", "put", int64(2), int64(201)); err != nil {
		t.Fatalf("put on kv1 after failed decision: %v", err)
	}
	if err := execWithWatchdog(t, db, "kv0", "put", int64(9), int64(90)); err != nil {
		t.Fatalf("put on kv0 after salvaged decision failure: %v", err)
	}
	db.Close()

	db2 := MustOpen(def, twoContainerCfg(mem))
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 2); present {
		t.Fatalf("undecided 2PC write resurrected on kv0 with %d", v)
	}
	if v, present := readV(t, db2, "kv1", 2); !present || v != 201 {
		t.Fatalf("kv1[2] = (%d, %v), want the follow-up put's 201", v, present)
	}
	// The recovered database must run fresh multi-container commits over the
	// same keys (global ids reseeded, tombstones in place).
	if err := execWithWatchdog(t, db2, "kv0", "copyTo", "kv1", int64(2), int64(22)); err != nil {
		t.Fatalf("post-recovery copyTo: %v", err)
	}
	if v, present := readV(t, db2, "kv1", 2); !present || v != 22 {
		t.Fatalf("post-recovery copyTo invisible on kv1: (%d, %v)", v, present)
	}
}

// TestTwoPCRecoveryCommitsDecidedTransaction checks the commit side of
// presumed abort end to end: an acknowledged multi-container transaction
// leaves a durable prepare record on every writing participant and a decision
// record naming exactly the writing participants on the coordinator's log
// (the lowest writer), and a machine crash immediately after the ack recovers
// it on every participant. A read-only participant appends nothing and is
// left out of the decision.
func TestTwoPCRecoveryCommitsDecidedTransaction(t *testing.T) {
	for _, arm := range []struct {
		name, proc  string
		coordinator string   // the log holding the decision
		parts       []uint64 // the participants the decision names
		written     []string // the reactors the transaction wrote
	}{
		{name: "writers", proc: "copyTo", coordinator: "container-0", parts: []uint64{0, 1}, written: []string{"kv0", "kv1"}},
		{name: "read-only-participant", proc: "putRemote", coordinator: "container-1", parts: []uint64{1}, written: []string{"kv1"}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			mem := wal.NewMemStorage()
			cfg := twoContainerCfg(mem)
			cfg.GroupCommit = GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond}
			def := kvDef("kv0", "kv1")
			db := MustOpen(def, cfg)
			db.MustLoad("kv0", "store", rel.Row{int64(1), int64(1)}) // putRemote's local read marker, not logged
			if _, err := db.Execute("kv0", arm.proc, "kv1", int64(2), int64(20)); err != nil {
				t.Fatalf("%s: %v", arm.proc, err)
			}
			// Machine crash right after the ack: only fsynced bytes survive; the
			// wedged instance is abandoned without Close.
			crashed := mem.CrashCopy()
			defer db.Close()

			// The surviving coordinator log must hold the protocol's records.
			log, err := wal.Open(crashed.Sub(arm.coordinator), wal.Options{})
			if err != nil {
				t.Fatalf("open coordinator log: %v", err)
			}
			var prepares, decisions int
			var participants []uint64
			if err := log.Replay(func(rec wal.Record) error {
				switch rec.Kind {
				case wal.KindPrepare:
					prepares++
				case wal.KindDecision:
					decisions++
					participants = rec.Participants
				}
				return nil
			}); err != nil {
				t.Fatalf("replay coordinator log: %v", err)
			}
			if prepares != 1 || decisions != 1 {
				t.Fatalf("coordinator log holds %d prepare and %d decision records, want 1 and 1", prepares, decisions)
			}
			if !reflect.DeepEqual(participants, arm.parts) {
				t.Fatalf("decision participants = %v, want %v", participants, arm.parts)
			}
			if arm.coordinator != "container-0" {
				// The read-only participant's log holds nothing of the
				// transaction.
				segs, err := crashed.Sub("container-0").List()
				if err != nil {
					t.Fatalf("List: %v", err)
				}
				if len(segs) != 0 {
					t.Fatalf("the read-only participant's log has %d segments, want none", len(segs))
				}
			}

			cfg2 := twoContainerCfg(crashed)
			cfg2.GroupCommit = cfg.GroupCommit
			db2 := MustOpen(def, cfg2)
			t.Cleanup(db2.Close)
			if _, err := db2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			for _, r := range arm.written {
				if v, present := readV(t, db2, r, 2); !present || v != 20 {
					t.Fatalf("acknowledged 2PC write lost on %s: (%d, %v)", r, v, present)
				}
			}
		})
	}
}

// failNthSyncStorage fails chosen fsync ordinals per named sub-storage
// (counting only syncs that reach the storage — absorbed Sync calls issue no
// IO). It models a log device whose fsync fails transiently at a chosen
// protocol step.
type failNthSyncStorage struct {
	wal.Storage
	name   string
	spec   map[string]map[int64]bool // sub name -> failing sync ordinals
	counts *sync.Map                 // sub name -> *atomic.Int64
	errVal error
}

func (s *failNthSyncStorage) Sub(name string) wal.Storage {
	return &failNthSyncStorage{
		Storage: s.Storage.Sub(name),
		name:    name,
		spec:    s.spec,
		counts:  s.counts,
		errVal:  s.errVal,
	}
}

func (s *failNthSyncStorage) Create(index uint64) (wal.SegmentFile, error) {
	f, err := s.Storage.Create(index)
	if err != nil {
		return nil, err
	}
	return &failNthSyncFile{SegmentFile: f, owner: s}, nil
}

type failNthSyncFile struct {
	wal.SegmentFile
	owner *failNthSyncStorage
}

func (f *failNthSyncFile) Sync() error {
	o := f.owner
	if fails := o.spec[o.name]; fails != nil {
		c, _ := o.counts.LoadOrStore(o.name, &atomic.Int64{})
		if fails[c.(*atomic.Int64).Add(1)] {
			return o.errVal
		}
	}
	return f.SegmentFile.Sync()
}

// TestTwoPCReadOnlyCoordinatorDecisionFsyncFailure covers the abort corners
// of a two-phase commit with a read-only participant.
//
// The decision arm is the nastiest: the lowest-numbered participant is
// read-only, so the writer coordinates, and the force of its prepare and
// decision fails — and so does the fsync of their retraction tombstone. The
// orphan decision must still be tombstoned on the coordinator's log —
// otherwise a later commit's fsync makes it durable together with its
// prepare, and recovery would resurrect the failed transaction's write.
//
// The barrier arms cover the read-only participant's inline barrier: the
// local marker putRemote reads was installed by a write whose fsync failed,
// so the read-only participant must force it before the transaction may
// commit. When that force fails too, the transaction aborts before its
// commit point — no decision record reaches container 0's log — and recovery
// finds no trace of it. The read-only participant is the lowest container in
// one arm and the other participant in the second.
func TestTwoPCReadOnlyCoordinatorDecisionFsyncFailure(t *testing.T) {
	t.Run("decision", func(t *testing.T) {
		mem := wal.NewMemStorage()
		storage := &failNthSyncStorage{
			Storage: wal.Storage(mem),
			spec: map[string]map[int64]bool{
				// container-1 (the coordinator: the only writer): sync 1 is the
				// force of the prepare and the decision, sync 2 their
				// retraction tombstone's. Container 0's inline barrier is
				// absorbed by its empty log without IO.
				"container-1": {1: true, 2: true},
			},
			counts: &sync.Map{},
			errVal: errors.New("injected fsync failure"),
		}
		def := kvDef("kv0", "kv1")
		db := MustOpen(def, twoContainerCfg(storage))
		db.MustLoad("kv0", "store", rel.Row{int64(1), int64(1)}) // local read marker, not logged

		if err := execWithWatchdog(t, db, "kv0", "putRemote", "kv1", int64(2), int64(20)); err == nil {
			t.Fatal("putRemote succeeded despite the injected decision fsync failure")
		}
		// A later acknowledged commit on the coordinator fsyncs its log — with
		// it, the orphan decision bytes and (the fix) their tombstone.
		if err := execWithWatchdog(t, db, "kv1", "put", int64(4), int64(40)); err != nil {
			t.Fatalf("put on the coordinator after failed decision: %v", err)
		}
		if err := execWithWatchdog(t, db, "kv0", "put", int64(3), int64(30)); err != nil {
			t.Fatalf("put after failed decision: %v", err)
		}
		// Machine crash: only fsynced bytes survive.
		crashed := mem.CrashCopy()
		db.Close()

		db2 := MustOpen(def, twoContainerCfg(crashed))
		t.Cleanup(db2.Close)
		if _, err := db2.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if v, present := readV(t, db2, "kv1", 2); present {
			t.Fatalf("failed transaction's remote write resurrected on kv1 with %d (orphan decision became durable)", v)
		}
		if v, present := readV(t, db2, "kv0", 3); !present || v != 30 {
			t.Fatalf("acknowledged kv0[3] = (%d, %v), want 30", v, present)
		}
	})
	for _, arm := range []struct {
		name, reader, writer, readerSub string
	}{
		{name: "barrier-coordinator", reader: "kv0", writer: "kv1", readerSub: "container-0"},
		{name: "barrier-participant", reader: "kv1", writer: "kv0", readerSub: "container-1"},
	} {
		t.Run(arm.name, func(t *testing.T) {
			mem := wal.NewMemStorage()
			storage := &failNthSyncStorage{
				Storage: wal.Storage(mem),
				// On the reader's log, sync 1 is the marker write's force and
				// sync 2 the barrier's.
				spec:   map[string]map[int64]bool{arm.readerSub: {1: true, 2: true}},
				counts: &sync.Map{},
				errVal: errors.New("injected fsync failure"),
			}
			def := kvDef("kv0", "kv1")
			db := MustOpen(def, twoContainerCfg(storage))
			if err := execWithWatchdog(t, db, arm.reader, "put", int64(1), int64(1)); err == nil {
				t.Fatal("marker put succeeded despite the injected fsync failure")
			}
			if err := execWithWatchdog(t, db, arm.reader, "putRemote", arm.writer, int64(2), int64(20)); err == nil {
				t.Fatal("putRemote succeeded although the marker it read never became durable")
			}
			segs, err := mem.Sub("container-0").List()
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			for _, idx := range segs {
				buf, err := mem.Sub("container-0").ReadSegment(idx)
				if err != nil {
					t.Fatalf("ReadSegment: %v", err)
				}
				recs, _ := wal.DecodeAll(buf)
				for _, r := range recs {
					if r.Kind == wal.KindDecision {
						t.Fatalf("a decision record reached the coordinator's log although the barrier failed: %+v", r)
					}
				}
			}
			crashed := mem.CrashCopy()
			db.Close()

			db2 := MustOpen(def, twoContainerCfg(crashed))
			t.Cleanup(db2.Close)
			if _, err := db2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if v, present := readV(t, db2, arm.writer, 2); present {
				t.Fatalf("failed transaction's write recovered on %s with %d", arm.writer, v)
			}
		})
	}
}

// TestTwoPCRoundForcesSharesConcurrently holds one participant's fsync in a
// two-container round with no window, the configuration that once forced the
// shares one after the other: the other participant's share is forced while
// the held one waits, whichever of the two is held, and the round commits
// once the held fsync completes.
func TestTwoPCRoundForcesSharesConcurrently(t *testing.T) {
	for held := 0; held < 2; held++ {
		t.Run(fmt.Sprintf("held-container-%d", held), func(t *testing.T) {
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			db := MustOpen(kvDef("kv0", "kv1"), twoContainerCfg(newGateSyncStorage(fmt.Sprintf("container-%d", held), 1, gate)))
			t.Cleanup(db.Close)
			t.Cleanup(release) // before Close, which waits for the held round
			out := make(chan error, 1)
			go func() {
				_, err := db.Execute("kv0", "copyTo", "kv1", int64(1), int64(10))
				out <- err
			}()
			other := db.containers[1-held].wal
			waitFor(t, replicaWait, func() bool { return other.DurableLSN() > 0 })
			select {
			case err := <-out:
				t.Fatalf("the round returned (%v) while container %d's fsync was held", err, held)
			default:
			}
			release()
			if err := <-out; err != nil {
				t.Fatalf("copyTo: %v", err)
			}
			if v, present := readV(t, db, "kv1", 1); !present || v != 10 {
				t.Fatalf("kv1[1] = (%d, %v), want 10", v, present)
			}
		})
	}
}
