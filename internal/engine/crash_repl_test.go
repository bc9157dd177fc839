package engine

import (
	"fmt"
	"testing"

	"reactdb/internal/wal"
)

// This file extends the crash-injection matrix to replication: it enumerates
// every storage IO boundary of the shipping pipeline — mirror segment writes
// and fsyncs, mirror rotation (segment handoff), checkpoint-blob transfer,
// and the fsync that releases a semi-sync acknowledgment — and kills the
// primary or the replica at each one. Recovery is always judged by PROMOTION:
// the replica's surviving mirror bytes are opened as an ordinary primary and
// recovered, and the result must be a consistent committed prefix of the
// primary's per-container history with every 2PC group atomic. Each matrix
// point then runs the double-restart drill: the promoted database serves a
// fresh multi-container commit, restarts, and re-verifies everything.
// `make crash-repl` runs exactly these tests; the plain crash matrix target
// picks them up too.

// replCrashOp is one scripted write with its per-container placement: key and
// value identify it uniquely in the recovered state, pair marks a
// multi-container transaction (present on both containers or neither).
type replCrashOp struct {
	key, val int64
	pair     bool
	c0, c1   bool // which containers the op writes
	acked    bool
}

// runReplPhase1 is the pre-replica workload: the state the replica must pick
// up through checkpoint transfer (the blob) or backfill shipping (the log).
func runReplPhase1(db *Database) []replCrashOp {
	ops := []replCrashOp{
		{key: 10, val: 100, c0: true},
		{key: 11, val: 110, c1: true},
		{key: 12, val: 120, pair: true, c0: true, c1: true},
	}
	ops[0].acked = exec1(db, "kv0", "put", int64(10), int64(100))
	ops[1].acked = exec1(db, "kv1", "put", int64(11), int64(110))
	ops[2].acked = exec1(db, "kv0", "copyTo", "kv1", int64(12), int64(120))
	return ops
}

// runReplPhase2 is the live-tail workload: singles, 2PC groups with both
// coordinator orientations, and filler traffic that rotates the mirror's
// small segments so the matrix hits mid-rotation kills.
func runReplPhase2(db *Database) []replCrashOp {
	var ops []replCrashOp
	add := func(op replCrashOp, ok bool) {
		op.acked = ok
		ops = append(ops, op)
	}
	add(replCrashOp{key: 1, val: 10, c0: true}, exec1(db, "kv0", "put", int64(1), int64(10)))
	add(replCrashOp{key: 21, val: 11, c1: true}, exec1(db, "kv1", "put", int64(21), int64(11)))
	add(replCrashOp{key: 2, val: 20, pair: true, c0: true, c1: true},
		exec1(db, "kv0", "copyTo", "kv1", int64(2), int64(20)))
	add(replCrashOp{key: 3, val: 30, c0: true}, exec1(db, "kv0", "put", int64(3), int64(30)))
	add(replCrashOp{key: 4, val: 40, pair: true, c0: true, c1: true},
		exec1(db, "kv1", "copyTo", "kv0", int64(4), int64(40)))
	for i := int64(0); i < 6; i++ {
		r, c0 := "kv0", true
		if i%2 == 1 {
			r, c0 = "kv1", false
		}
		add(replCrashOp{key: 200 + i, val: 1200 + i, c0: c0, c1: !c0},
			exec1(db, r, "put", int64(200+i), int64(1200+i)))
	}
	return ops
}

func exec1(db *Database, reactor, proc string, args ...any) bool {
	_, err := db.Execute(reactor, proc, args...)
	return err == nil
}

// assertReplPrefix checks that a promoted replica holds a consistent
// committed prefix of the scripted history: per container, the present keys
// form a prefix of that container's write order (the mirror is an LSN-prefix
// per shard), every present key carries the committed value, and every pair
// is atomic across containers. requireAcked additionally demands every
// acknowledged op be present — the semi-sync promise.
//
// requirePairs is false only for kills DURING bootstrap (OpenReplica never
// returned): checkpoint blobs transfer per shard, so a kill between two
// shards' blob copies leaves checkpoint-carried cross-container pairs torn.
// Such a mirror was never a replica — promotion tooling must not use it — and
// the matrix only demands per-container prefixes and value correctness of it.
// Once OpenReplica returns, every blob is fsynced in the mirror and shipped
// pairs are protected by decision fencing, so full atomicity is enforced.
func assertReplPrefix(t *testing.T, db *Database, ops []replCrashOp, requireAcked, requirePairs bool, label string) {
	t.Helper()
	present := func(reactor string, op replCrashOp) bool {
		v, p := readV(t, db, reactor, op.key)
		if p && v != op.val {
			t.Fatalf("%s: %s[%d] = %d, want %d (value from nowhere)", label, reactor, op.key, v, op.val)
		}
		return p
	}
	seenAbsent := map[string]bool{}
	for _, op := range ops {
		var on []string
		if op.c0 {
			on = append(on, "kv0")
		}
		if op.c1 {
			on = append(on, "kv1")
		}
		got := make([]bool, len(on))
		for i, r := range on {
			got[i] = present(r, op)
		}
		if op.pair && requirePairs && got[0] != got[1] {
			t.Fatalf("%s: pair key %d durable on a strict subset: kv0=%v kv1=%v", label, op.key, got[0], got[1])
		}
		for i, r := range on {
			if got[i] && seenAbsent[r] {
				t.Fatalf("%s: %s[%d] present after an earlier absent write on %s — not a log prefix", label, r, op.key, r)
			}
			if !got[i] {
				seenAbsent[r] = true
				if requireAcked && op.acked {
					t.Fatalf("%s: acknowledged key %d lost from the replica mirror", label, op.key)
				}
			}
		}
	}
}

// promoteAndCheck opens the given mirror bytes as a primary, recovers, checks
// the prefix invariant, then performs the double-restart drill: a fresh 2PC
// commit, a restart, and a full re-verification.
func promoteAndCheck(t *testing.T, mirror *wal.MemStorage, ops []replCrashOp, requireAcked, requirePairs bool, label string) {
	t.Helper()
	cfg := crashCfg(mirror, true)
	db := MustOpen(kvDef("kv0", "kv1"), cfg)
	if _, err := db.Recover(); err != nil {
		t.Fatalf("%s: promotion Recover: %v", label, err)
	}
	assertReplPrefix(t, db, ops, requireAcked, requirePairs, label)
	if _, err := db.Execute("kv0", "copyTo", "kv1", int64(7), int64(70)); err != nil {
		t.Fatalf("%s: post-promotion copyTo: %v", label, err)
	}
	db.Close()

	db2 := MustOpen(kvDef("kv0", "kv1"), cfg)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("%s: second Recover: %v", label, err)
	}
	assertReplPrefix(t, db2, ops, requireAcked, requirePairs, label+" (restart 2)")
	for _, r := range []string{"kv0", "kv1"} {
		if v, p := readV(t, db2, r, 7); !p || v != 70 {
			t.Fatalf("%s: post-promotion commit lost on %s: (%d, %v)", label, r, v, p)
		}
	}
	db2.Close()
}

// replPrimaryCfg: group commit on, a primary segment size small enough that
// phase 2 rotates (the cursor must follow a segment handoff) but large enough
// that phase 1 stays in the unsealed active segment — so the pre-replica
// checkpoint truncates nothing and the backfill path stays assertable.
func replPrimaryCfg(storage wal.Storage) Config {
	cfg := crashCfg(storage, true)
	cfg.Durability.SegmentSize = 1 << 10
	return cfg
}

// TestCrashReplReplicaKillMatrix kills the REPLICA at every mirror IO
// boundary: during checkpoint-blob transfer (bootstrap), segment appends,
// fsyncs — including the ones releasing semi-sync acks — and mirror segment
// rotation. The primary stays healthy throughout; whatever the dead replica's
// durable mirror holds must promote to a consistent committed prefix.
func TestCrashReplReplicaKillMatrix(t *testing.T) {
	def := kvDef("kv0", "kv1")

	run := func(crashAt int64) (ctr *crashCounter, mirror *wal.MemStorage, ops []replCrashOp, bootstrapped bool) {
		primary := MustOpen(def, replPrimaryCfg(wal.NewMemStorage()))
		defer primary.Close()
		ops = runReplPhase1(primary)
		if err := primary.Checkpoint(); err != nil {
			t.Fatalf("phase-1 Checkpoint: %v", err)
		}
		for _, cs := range primary.CheckpointStats() {
			if cs.SegmentsDeleted != 0 {
				t.Fatalf("phase-1 checkpoint truncated %d segments; prefix assertion needs the full backfill log", cs.SegmentsDeleted)
			}
		}
		mirror = wal.NewMemStorage()
		ctr = &crashCounter{crashAt: crashAt}
		rep, err := OpenReplica(primary, ReplicaOptions{
			Ack:         AckSemiSync,
			Storage:     &crashStorage{inner: mirror, ctr: ctr},
			SegmentSize: 192,
		})
		// A bootstrap that died at the crash point is itself a valid kill;
		// the promotion check below judges whatever the mirror holds.
		ops = append(ops, runReplPhase2(primary)...)
		if err == nil {
			// Let the replica drain or degrade — both are quiescent ends.
			waitFor(t, replicaWait, func() bool {
				st := rep.Stats()
				if st.Degraded {
					return true
				}
				for _, sh := range st.Shards {
					if sh.Lag != 0 || sh.Pending != 0 || sh.Mirrored != sh.PrimaryDurable {
						return false
					}
				}
				return true
			})
			rep.Close()
		}
		return ctr, mirror, ops, err == nil
	}

	// Calibration: a crash-free pass counts the mirror IO boundaries.
	calCtr, _, calOps, _ := run(-1)
	for _, op := range calOps {
		if !op.acked {
			t.Fatalf("crash-free run did not acknowledge every op: %+v", calOps)
		}
	}
	total := calCtr.ops.Load()
	t.Logf("calibration: %d IO boundaries", total)
	if total < 10 {
		t.Fatalf("calibration produced only %d mirror IO boundaries", total)
	}

	for crashAt := int64(0); crashAt <= total; crashAt++ {
		_, mirror, ops, bootstrapped := run(crashAt)
		// The replica machine dies: only fsynced mirror bytes survive. The
		// primary was healthy, so acked ops need not be on the replica —
		// semi-sync withdrew its promise when the replica degraded.
		promoteAndCheck(t, mirror.CrashCopy(), ops, false, bootstrapped,
			fmt.Sprintf("replica-kill crashAt=%d", crashAt))
	}
}

// TestCrashReplPrimaryKillSemiSync kills the PRIMARY at every one of its own
// storage IO boundaries while a healthy semi-sync replica tails it, then
// promotes the replica's mirror — taken as a crash copy at that very moment,
// so the replica may die with it. Every acknowledged commit must survive:
// semi-sync never acks a commit the replica can lose.
func TestCrashReplPrimaryKillSemiSync(t *testing.T) {
	def := kvDef("kv0", "kv1")

	run := func(crashAt int64) (ctr *crashCounter, mirror *wal.MemStorage, ops []replCrashOp) {
		mem := wal.NewMemStorage()
		ctr = &crashCounter{crashAt: crashAt}
		primary := MustOpen(def, replPrimaryCfg(&crashStorage{inner: mem, ctr: ctr}))
		mirror = wal.NewMemStorage()
		rep, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: mirror})
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		ops = append(runReplPhase1(primary), runReplPhase2(primary)...)
		// Machine death: snapshot the mirror's durable bytes BEFORE any
		// orderly shutdown could flush more — the promotion must stand on
		// what was durable when the last acknowledgment returned.
		mirror = mirror.CrashCopy()
		rep.Close()
		primary.Close()
		return ctr, mirror, ops
	}

	calCtr, _, calOps := run(-1)
	for _, op := range calOps {
		if !op.acked {
			t.Fatalf("crash-free run did not acknowledge every op: %+v", calOps)
		}
	}
	total := calCtr.ops.Load()
	t.Logf("calibration: %d IO boundaries", total)
	if total < 10 {
		t.Fatalf("calibration produced only %d primary IO boundaries", total)
	}

	for crashAt := int64(0); crashAt <= total; crashAt++ {
		_, mirror, ops := run(crashAt)
		promoteAndCheck(t, mirror, ops, true, true, fmt.Sprintf("primary-kill crashAt=%d", crashAt))
	}
}

// TestCrashReplShippingGapRebootstrap covers the remaining boundary: a
// replica that fell behind while detached finds its log truncated (the
// shipping gap) and must fast-forward through the primary's newest checkpoint
// — both mid-run (cursor hits the hole) and at restart (mirror ends below the
// checkpoint floor).
func TestCrashReplShippingGapRebootstrap(t *testing.T) {
	def := kvDef("kv0", "kv1")
	cfg := crashCfg(wal.NewMemStorage(), true)
	cfg.Durability.SegmentSize = 192 // rotate aggressively so truncation bites
	primary := MustOpen(def, cfg)
	t.Cleanup(primary.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(primary, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	for i := int64(0); i < 10; i++ {
		exec1(primary, "kv0", "put", i, 100+i)
		exec1(primary, "kv1", "put", i, 200+i)
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	rep.Close()

	// Replica down: the primary commits on, checkpoints, and truncates — the
	// detached replica's cursor position is now inside the hole.
	for i := int64(10); i < 40; i++ {
		exec1(primary, "kv0", "put", i, 100+i)
		exec1(primary, "kv1", "put", i, 200+i)
	}
	for round := 0; round < 2; round++ {
		if err := primary.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	var truncated uint64
	for _, cs := range primary.CheckpointStats() {
		truncated += cs.SegmentsDeleted
	}
	if truncated == 0 {
		t.Skip("no segments truncated; gap path not reachable in this run")
	}

	// Restart on the stale mirror: the checkpoint fast-forward (restart gap
	// rule) or the cursor's ErrShipGap re-bootstrap must both converge.
	rep2, err := OpenReplica(primary, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("reopen stale replica: %v", err)
	}
	t.Cleanup(rep2.Close)
	for i := int64(40); i < 50; i++ {
		exec1(primary, "kv0", "put", i, 100+i)
		exec1(primary, "kv1", "put", i, 200+i)
	}
	if err := rep2.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if v, p := readReplicaV(t, rep2, "kv0", i); !p || v != 100+i {
			t.Fatalf("kv0[%d] = (%d, %v), want %d", i, v, p, 100+i)
		}
		if row, err := rep2.ReadRow("kv1", "store", i); err != nil || row == nil || row.Int64(1) != 200+i {
			t.Fatalf("kv1[%d] = (%v, %v), want %d", i, row, err, 200+i)
		}
	}
}
