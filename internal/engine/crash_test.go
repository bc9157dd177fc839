package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/wal"
)

// This file is the crash-injection harness: it enumerates every WAL append
// and fsync boundary of a scripted multi-container workload, kills the
// "machine" at each one, recovers from the durable prefix, and asserts the
// all-or-nothing invariant of the atomic commit protocol — an acknowledged
// transaction is fully present after recovery, an unacknowledged
// multi-container transaction is either fully present or fully absent, and
// never durable on a strict subset of its participants.

var errInjectedCrash = errors.New("injected crash: storage is dead")

// crashCounter assigns every storage IO operation (segment create, write,
// fsync) a position in a total order and fails every operation past the
// configured crash point, leaving no trace — the durable state frozen at the
// boundary is exactly what MemStorage.CrashCopy returns afterwards. With
// concurrent group committers the interleaving between containers is decided
// by the scheduler, but any prefix of the total order is a consistent
// machine-death cut, so the invariant must hold at every enumerated point.
type crashCounter struct {
	ops     atomic.Int64
	crashAt int64 // ops allowed to succeed; <0 means never crash
}

func (c *crashCounter) allow() bool {
	if c.crashAt < 0 {
		c.ops.Add(1)
		return true
	}
	return c.ops.Add(1) <= c.crashAt
}

// crashStorage wraps a Storage tree with the shared crash counter.
type crashStorage struct {
	inner wal.Storage
	ctr   *crashCounter
}

func (s *crashStorage) Sub(name string) wal.Storage {
	return &crashStorage{inner: s.inner.Sub(name), ctr: s.ctr}
}

func (s *crashStorage) List() ([]uint64, error) { return s.inner.List() }

func (s *crashStorage) ReadSegment(index uint64) ([]byte, error) {
	return s.inner.ReadSegment(index)
}

func (s *crashStorage) SyncSegment(index uint64) error {
	if !s.ctr.allow() {
		return errInjectedCrash
	}
	return s.inner.SyncSegment(index)
}

func (s *crashStorage) Create(index uint64) (wal.SegmentFile, error) {
	if !s.ctr.allow() {
		return nil, errInjectedCrash
	}
	f, err := s.inner.Create(index)
	if err != nil {
		return nil, err
	}
	return &crashSegmentFile{inner: f, ctr: s.ctr}, nil
}

func (s *crashStorage) DeleteSegment(index uint64) error {
	if !s.ctr.allow() {
		return errInjectedCrash
	}
	return s.inner.DeleteSegment(index)
}

func (s *crashStorage) ListCheckpoints() ([]uint64, error) { return s.inner.ListCheckpoints() }

func (s *crashStorage) ReadCheckpoint(seq uint64) ([]byte, error) {
	return s.inner.ReadCheckpoint(seq)
}

// WriteCheckpoint past the crash point leaves a half-written blob behind —
// the torn checkpoint file a machine death mid-write produces — so the
// matrix exercises recovery's corrupt-checkpoint fallback, not just its
// happy path.
func (s *crashStorage) WriteCheckpoint(seq uint64, data []byte) error {
	if !s.ctr.allow() {
		_ = s.inner.WriteCheckpoint(seq, data[:len(data)/2])
		return errInjectedCrash
	}
	return s.inner.WriteCheckpoint(seq, data)
}

func (s *crashStorage) DeleteCheckpoint(seq uint64) error {
	if !s.ctr.allow() {
		return errInjectedCrash
	}
	return s.inner.DeleteCheckpoint(seq)
}

type crashSegmentFile struct {
	inner wal.SegmentFile
	ctr   *crashCounter
}

func (f *crashSegmentFile) Write(p []byte) (int, error) {
	if !f.ctr.allow() {
		return 0, errInjectedCrash
	}
	return f.inner.Write(p)
}

func (f *crashSegmentFile) Sync() error {
	if !f.ctr.allow() {
		return errInjectedCrash
	}
	return f.inner.Sync()
}

func (f *crashSegmentFile) Close() error { return f.inner.Close() }

// crashCfg deploys two containers with kv0 on container 0 and kv1 on
// container 1; grouped selects group commit (the amortized 2PC logging path)
// versus eager per-record append+fsync.
func crashCfg(storage wal.Storage, grouped bool) Config {
	cfg := Config{
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
	if grouped {
		cfg.GroupCommit = GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond}
	}
	return cfg
}

// crashScript runs the scripted workload against db and returns which ops
// were acknowledged (Execute returned nil). Ops past the crash point fail;
// their outcome is deliberately ignored beyond recording the missing ack.
type crashScriptAcks struct {
	put0, put1, copy01, put3, copy10 bool
}

func runCrashScript(db *Database) crashScriptAcks {
	var a crashScriptAcks
	exec := func(reactor, proc string, args ...any) bool {
		_, err := db.Execute(reactor, proc, args...)
		return err == nil
	}
	a.put0 = exec("kv0", "put", int64(1), int64(10))
	a.put1 = exec("kv1", "put", int64(1), int64(11))
	a.copy01 = exec("kv0", "copyTo", "kv1", int64(2), int64(20)) // 2PC, coordinator c0
	a.put3 = exec("kv0", "put", int64(3), int64(30))
	a.copy10 = exec("kv1", "copyTo", "kv0", int64(4), int64(40)) // 2PC, coordinator c1
	return a
}

// assertCrashInvariants checks the recovered state of db against the ack
// vector: acknowledged effects present, unacknowledged single-container
// effects present-or-absent with the right value, and multi-container
// transactions never durable on a strict subset of their participants.
func assertCrashInvariants(t *testing.T, db *Database, a crashScriptAcks, label string) {
	t.Helper()
	single := func(acked bool, reactor string, k, want int64) {
		v, present := readV(t, db, reactor, k)
		if acked && (!present || v != want) {
			t.Fatalf("%s: acknowledged %s[%d] = (%d, %v), want %d", label, reactor, k, v, present, want)
		}
		if present && v != want {
			t.Fatalf("%s: %s[%d] recovered with wrong value %d, want %d", label, reactor, k, v, want)
		}
	}
	pair := func(acked bool, k, want int64, desc string) {
		v0, p0 := readV(t, db, "kv0", k)
		v1, p1 := readV(t, db, "kv1", k)
		if p0 != p1 {
			t.Fatalf("%s: %s durable on a strict subset of its participants: kv0=%v kv1=%v",
				label, desc, p0, p1)
		}
		if acked && !p0 {
			t.Fatalf("%s: acknowledged %s absent after recovery", label, desc)
		}
		if p0 && (v0 != want || v1 != want) {
			t.Fatalf("%s: %s recovered with values (%d, %d), want %d", label, desc, v0, v1, want)
		}
	}
	single(a.put0, "kv0", 1, 10)
	single(a.put1, "kv1", 1, 11)
	pair(a.copy01, 2, 20, "copyTo kv0->kv1")
	single(a.put3, "kv0", 3, 30)
	pair(a.copy10, 4, 40, "copyTo kv1->kv0")
}

// TestCrashMatrixMultiContainerAtomicity is the crash matrix: a calibration
// run counts the workload's IO boundaries, then one run per boundary crashes
// there, recovers from the durable prefix, verifies the invariant, and — to
// cover recovery's own durable side effects (presumed-abort tombstones,
// global-id reseeding) — commits one more cross-container transaction in the
// recovered incarnation, restarts again, and re-verifies everything.
func TestCrashMatrixMultiContainerAtomicity(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		mode := "eager"
		if grouped {
			mode = "grouped"
		}
		t.Run(mode, func(t *testing.T) {
			def := kvDef("kv0", "kv1")

			// Calibration: count the boundaries of a crash-free run.
			calCtr := &crashCounter{crashAt: -1}
			calMem := wal.NewMemStorage()
			db := MustOpen(def, crashCfg(&crashStorage{inner: calMem, ctr: calCtr}, grouped))
			acks := runCrashScript(db)
			if !(acks.put0 && acks.put1 && acks.copy01 && acks.put3 && acks.copy10) {
				t.Fatalf("crash-free run did not acknowledge every op: %+v", acks)
			}
			if grouped {
				// Acceptance: 2PC prepare and decision records went through
				// each container's group committer.
				for _, gs := range db.GroupCommitStats() {
					if gs.Records == 0 {
						t.Fatalf("container %d flushed no 2PC records through its group committer", gs.Container)
					}
				}
			}
			db.Close()
			total := calCtr.ops.Load()
			t.Logf("calibration: %d IO boundaries", total)
			if total < 8 {
				t.Fatalf("calibration run produced only %d IO boundaries", total)
			}

			for crashAt := int64(0); crashAt <= total; crashAt++ {
				mem := wal.NewMemStorage()
				ctr := &crashCounter{crashAt: crashAt}
				db := MustOpen(def, crashCfg(&crashStorage{inner: mem, ctr: ctr}, grouped))
				acks := runCrashScript(db)
				db.Close()

				// The machine dies: only fsynced bytes survive.
				crashed := mem.CrashCopy()
				label := fmt.Sprintf("%s crashAt=%d", mode, crashAt)
				db2 := MustOpen(def, crashCfg(crashed, grouped))
				if _, err := db2.Recover(); err != nil {
					t.Fatalf("%s: Recover: %v", label, err)
				}
				assertCrashInvariants(t, db2, acks, label)

				// Second incarnation: the recovered database must serve new
				// multi-container transactions (global ids reseeded past the
				// log's)…
				if _, err := db2.Execute("kv0", "copyTo", "kv1", int64(5), int64(50)); err != nil {
					t.Fatalf("%s: post-recovery copyTo: %v", label, err)
				}
				db2.Close()

				// …and a further restart must preserve both the original
				// invariant and the new commit (tombstoned presumed aborts
				// stay aborted; the fresh decision is not confused with any
				// stale undecided prepare).
				db3 := MustOpen(def, crashCfg(crashed, grouped))
				if _, err := db3.Recover(); err != nil {
					t.Fatalf("%s: second Recover: %v", label, err)
				}
				assertCrashInvariants(t, db3, acks, label+" (restart 2)")
				if v, present := readV(t, db3, "kv0", 5); !present || v != 50 {
					t.Fatalf("%s: post-recovery commit lost on kv0: (%d, %v)", label, v, present)
				}
				if v, present := readV(t, db3, "kv1", 5); !present || v != 50 {
					t.Fatalf("%s: post-recovery commit lost on kv1: (%d, %v)", label, v, present)
				}
				db3.Close()
			}
		})
	}
}

// ckptCrashCfg is crashCfg with a tiny segment size so checkpoints have
// sealed segments to truncate, making the matrix enumerate the truncation IO
// boundaries (DeleteSegment, checkpoint prune) as well.
func ckptCrashCfg(storage wal.Storage, grouped bool) Config {
	cfg := crashCfg(storage, grouped)
	cfg.Durability.SegmentSize = 192
	return cfg
}

// ckptScriptAcks records which ops of the checkpoint crash script were
// acknowledged. Checkpoints change no observable state, so their own acks
// (ck1, ck2) carry no invariant — they only mark whether truncation may have
// run.
type ckptScriptAcks struct {
	put0, put1, copy01, put3, copy10, put5 bool
	ck1, ck2                               bool
	fill                                   [8]bool // filler puts (see runCkptScript)
}

// runCkptScript is the crash script with checkpoint boundaries folded in:
// a checkpoint after the first 2PC (so its records are truncation
// candidates) and another after the second, with single- and multi-container
// commits on both sides.
func runCkptScript(db *Database) ckptScriptAcks {
	var a ckptScriptAcks
	exec := func(reactor, proc string, args ...any) bool {
		_, err := db.Execute(reactor, proc, args...)
		return err == nil
	}
	a.put0 = exec("kv0", "put", int64(1), int64(10))
	a.put1 = exec("kv1", "put", int64(1), int64(11))
	a.copy01 = exec("kv0", "copyTo", "kv1", int64(2), int64(20)) // 2PC, coordinator c0
	// Filler traffic seals the segments holding copy01's prepare and
	// decision records, so ck1's truncation genuinely deletes them — the
	// matrix then covers mixed-round recoveries (one container checkpointed,
	// the other not) with the decision segment at stake.
	for i := range a.fill {
		r := "kv0"
		if i%2 == 1 {
			r = "kv1"
		}
		a.fill[i] = exec(r, "put", int64(100+i), int64(1000+i))
	}
	a.ck1 = db.Checkpoint() == nil
	a.put3 = exec("kv0", "put", int64(3), int64(30))
	a.copy10 = exec("kv1", "copyTo", "kv0", int64(4), int64(40)) // 2PC, coordinator c1
	a.ck2 = db.Checkpoint() == nil
	a.put5 = exec("kv1", "put", int64(5), int64(51))
	return a
}

// assertCkptCrashInvariants is assertCrashInvariants extended with the
// checkpoint script's trailing op. The checks double as the
// no-resurrection guarantee: a transaction whose records were truncated must
// be exactly as present (decided, acknowledged) or absent (aborted) as its
// ack dictates — recovery reading the checkpoint instead of the deleted
// records must not change the answer.
func assertCkptCrashInvariants(t *testing.T, db *Database, a ckptScriptAcks, label string) {
	t.Helper()
	assertCrashInvariants(t, db, crashScriptAcks{
		put0: a.put0, put1: a.put1, copy01: a.copy01, put3: a.put3, copy10: a.copy10,
	}, label)
	single := func(acked bool, reactor string, k, want int64) {
		v, present := readV(t, db, reactor, k)
		if acked && (!present || v != want) {
			t.Fatalf("%s: acknowledged %s[%d] = (%d, %v), want %d", label, reactor, k, v, present, want)
		}
		if present && v != want {
			t.Fatalf("%s: %s[%d] recovered with wrong value %d, want %d", label, reactor, k, v, want)
		}
	}
	for i, acked := range a.fill {
		r := "kv0"
		if i%2 == 1 {
			r = "kv1"
		}
		single(acked, r, int64(100+i), int64(1000+i))
	}
	single(a.put5, "kv1", 5, 51)
}

// TestCrashMatrixCheckpoint is the checkpoint-aware crash matrix: the
// scripted workload takes two checkpoints between its commits, and the
// matrix kills the machine at every storage IO boundary — which now includes
// crash mid-checkpoint-write (the crash wrapper leaves a torn blob behind,
// forcing recovery's corrupt-checkpoint fallback), crash after the
// checkpoint is durable but before truncation, and crash between individual
// segment deletions. Recovery must always reconstruct exactly the
// acknowledged state; a second incarnation then commits a fresh
// cross-container transaction and takes its own checkpoint, and a third
// restart re-verifies everything — checkpoints taken on recovered state must
// themselves recover.
func TestCrashMatrixCheckpoint(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		mode := "eager"
		if grouped {
			mode = "grouped"
		}
		t.Run(mode, func(t *testing.T) {
			def := kvDef("kv0", "kv1")

			// Calibration: count the boundaries of a crash-free run.
			calCtr := &crashCounter{crashAt: -1}
			calMem := wal.NewMemStorage()
			db := MustOpen(def, ckptCrashCfg(&crashStorage{inner: calMem, ctr: calCtr}, grouped))
			acks := runCkptScript(db)
			if !(acks.put0 && acks.put1 && acks.copy01 && acks.ck1 && acks.put3 && acks.copy10 && acks.ck2 && acks.put5) {
				t.Fatalf("crash-free run did not acknowledge every op: %+v", acks)
			}
			var truncated uint64
			for _, cs := range db.CheckpointStats() {
				truncated += cs.SegmentsDeleted
			}
			if truncated == 0 {
				t.Fatal("crash-free checkpoints truncated no segments; matrix would not cover deletion boundaries")
			}
			db.Close()
			total := calCtr.ops.Load()
			t.Logf("calibration: %d IO boundaries", total)
			if total < 12 {
				t.Fatalf("calibration run produced only %d IO boundaries", total)
			}

			for crashAt := int64(0); crashAt <= total; crashAt++ {
				mem := wal.NewMemStorage()
				ctr := &crashCounter{crashAt: crashAt}
				db := MustOpen(def, ckptCrashCfg(&crashStorage{inner: mem, ctr: ctr}, grouped))
				acks := runCkptScript(db)
				db.Close()

				// The machine dies: only fsynced bytes survive.
				crashed := mem.CrashCopy()
				label := fmt.Sprintf("%s crashAt=%d", mode, crashAt)
				db2 := MustOpen(def, ckptCrashCfg(crashed, grouped))
				if _, err := db2.Recover(); err != nil {
					t.Fatalf("%s: Recover: %v", label, err)
				}
				assertCkptCrashInvariants(t, db2, acks, label)

				// Second incarnation: serve a fresh multi-container commit and
				// checkpoint the recovered state.
				if _, err := db2.Execute("kv0", "copyTo", "kv1", int64(6), int64(60)); err != nil {
					t.Fatalf("%s: post-recovery copyTo: %v", label, err)
				}
				if err := db2.Checkpoint(); err != nil {
					t.Fatalf("%s: post-recovery Checkpoint: %v", label, err)
				}
				db2.Close()

				// Third incarnation: recovery from the post-recovery
				// checkpoint must preserve the original invariant and the new
				// commit.
				db3 := MustOpen(def, ckptCrashCfg(crashed, grouped))
				if _, err := db3.Recover(); err != nil {
					t.Fatalf("%s: second Recover: %v", label, err)
				}
				assertCkptCrashInvariants(t, db3, acks, label+" (restart 2)")
				for _, r := range []string{"kv0", "kv1"} {
					if v, present := readV(t, db3, r, 6); !present || v != 60 {
						t.Fatalf("%s: post-recovery commit lost on %s: (%d, %v)", label, r, v, present)
					}
				}
				db3.Close()
			}
		})
	}
}

// TestCrashDuringRecoveryTombstoning crashes a second time while recovery is
// appending presumed-abort tombstones: the tombstones themselves go through
// the WAL, so a crash there must leave the next recovery able to resolve the
// same prepares again.
func TestCrashDuringRecoveryTombstoning(t *testing.T) {
	def := kvDef("kv0", "kv1")
	mem := wal.NewMemStorage()
	ctr := &crashCounter{crashAt: -1}
	db := MustOpen(def, crashCfg(&crashStorage{inner: mem, ctr: ctr}, true))
	// Stop IO right before the decision record can become durable: calibrate
	// by running the 2PC once and replaying the boundary count minus one.
	if _, err := db.Execute("kv0", "copyTo", "kv1", int64(2), int64(20)); err != nil {
		t.Fatalf("calibration copyTo: %v", err)
	}
	db.Close()
	total := ctr.ops.Load()
	t.Logf("calibration: %d IO boundaries", total)

	for crashAt := int64(0); crashAt < total; crashAt++ {
		mem := wal.NewMemStorage()
		db := MustOpen(def, crashCfg(&crashStorage{inner: mem, ctr: &crashCounter{crashAt: crashAt}}, true))
		_, _ = db.Execute("kv0", "copyTo", "kv1", int64(2), int64(20))
		db.Close()
		crashed := mem.CrashCopy()

		// Recovery incarnation whose own IO — the Open-time tail adoption
		// fsync and the tombstone appends — crashes at every point.
		for recCrash := int64(0); ; recCrash++ {
			recMem := crashed.CrashCopy() // fresh independent copy per attempt
			recCtr := &crashCounter{crashAt: recCrash}
			db2, recErr := Open(def, crashCfg(&crashStorage{inner: recMem, ctr: recCtr}, true))
			if recErr == nil {
				_, recErr = db2.Recover()
				db2.Close()
			}
			// Whatever recovery managed to make durable, a final recovery on
			// the survivor must still satisfy the invariant.
			db3 := MustOpen(def, crashCfg(recMem.CrashCopy(), true))
			if _, err := db3.Recover(); err != nil {
				t.Fatalf("crashAt=%d recCrash=%d: final Recover: %v", crashAt, recCrash, err)
			}
			v0, p0 := readV(t, db3, "kv0", 2)
			v1, p1 := readV(t, db3, "kv1", 2)
			if p0 != p1 || (p0 && (v0 != 20 || v1 != 20)) {
				t.Fatalf("crashAt=%d recCrash=%d: partial state kv0=(%d,%v) kv1=(%d,%v)",
					crashAt, recCrash, v0, p0, v1, p1)
			}
			db3.Close()
			if recErr == nil && recCtr.ops.Load() <= recCrash {
				break // recovery ran without hitting the crash point
			}
		}
	}
}
