package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

const replicaWait = 10 * time.Second

func readReplicaV(t *testing.T, r *Replica, reactor string, k int64) (int64, bool) {
	t.Helper()
	row, err := r.ReadRow(reactor, "store", k)
	if err != nil {
		t.Fatalf("replica ReadRow(%s, %d): %v", reactor, k, err)
	}
	if row == nil {
		return 0, false
	}
	return row.Int64(1), true
}

// TestReplicaShipsCommitsAndServesReads is the basic tentpole path: a replica
// attached to a group-committing primary ships every acknowledged commit,
// applies it, and serves the same reads — while rejecting writes.
func TestReplicaShipsCommitsAndServesReads(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	rep, err := OpenReplica(db, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)

	const n = 50
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(1000+i)); err != nil {
			t.Fatalf("re-put %d: %v", i, err)
		}
	}
	for i := 40; i < 45; i++ {
		if _, err := db.Execute("kv0", "del", int64(i)); err != nil {
			t.Fatalf("del %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		v, present := readReplicaV(t, rep, "kv0", int64(i))
		switch {
		case i < 10:
			if !present || v != int64(1000+i) {
				t.Fatalf("replica key %d = (%d, %v), want %d", i, v, present, 1000+i)
			}
		case i >= 40 && i < 45:
			if present {
				t.Fatalf("deleted key %d visible on replica with %d", i, v)
			}
		default:
			if !present || v != int64(100+i) {
				t.Fatalf("replica key %d = (%d, %v), want %d", i, v, present, 100+i)
			}
		}
	}

	// Writes are rejected with the sentinel, reads through Execute work.
	if _, err := rep.Execute("kv0", "put", int64(1), int64(2)); !errors.Is(err, ErrReplicaRead) {
		t.Fatalf("replica write error = %v, want ErrReplicaRead", err)
	}
	if v, present := readReplicaV(t, rep, "kv0", 1); !present || v != 1001 {
		t.Fatalf("replica read after rejected write = (%d, %v), want 1001 intact", v, present)
	}

	st := rep.Stats()
	if st.Degraded || st.Err != "" {
		t.Fatalf("replica degraded: %+v", st)
	}
	if st.Applied == 0 || len(st.Shards) != 1 {
		t.Fatalf("stats = %+v, want applied records on one shard", st)
	}
	if sh := st.Shards[0]; sh.Lag != 0 || sh.Applied != sh.PrimaryDurable || sh.Mirrored != sh.PrimaryDurable {
		t.Fatalf("caught-up shard watermarks diverge: %+v", sh)
	}
}

// TestReplicaRequiresWALPrimary pins the configuration contract.
func TestReplicaRequiresWALPrimary(t *testing.T) {
	db := MustOpen(kvDef("kv0"), Config{Containers: 1, ExecutorsPerContainer: 1})
	t.Cleanup(db.Close)
	if _, err := OpenReplica(db, ReplicaOptions{}); err == nil {
		t.Fatal("OpenReplica succeeded on a DurabilityModeled primary")
	}
}

// TestReplicaTwoPCAtomicity ships multi-container transactions: prepares and
// decisions must resolve into group-atomic applies on the replica, and both
// participants' effects must be visible together.
func TestReplicaTwoPCAtomicity(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
		Placement: func(reactor string) int {
			if reactor == "kv0" {
				return 0
			}
			return 1
		},
	}
	db := MustOpen(kvDef("kv0", "kv1"), cfg)
	t.Cleanup(db.Close)

	rep, err := OpenReplica(db, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)

	const n = 30
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "copyTo", "kv1", int64(i), int64(10+i)); err != nil {
			t.Fatalf("copyTo %d: %v", i, err)
		}
	}
	// A read-only-coordinator group: kv0 reads, kv1 writes.
	if _, err := db.Execute("kv0", "putRemote", "kv1", int64(500), int64(7)); err != nil {
		t.Fatalf("putRemote: %v", err)
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		v0, p0 := readReplicaV(t, rep, "kv0", int64(i))
		v1, p1 := readReplicaV(t, rep, "kv1", int64(i))
		if !p0 || !p1 || v0 != int64(10+i) || v1 != int64(10+i) {
			t.Fatalf("group %d torn on replica: kv0=(%d,%v) kv1=(%d,%v)", i, v0, p0, v1, p1)
		}
	}
	if v, present := readReplicaV(t, rep, "kv1", 500); !present || v != 7 {
		t.Fatalf("read-only-coordinator group write = (%d, %v), want 7", v, present)
	}
}

// TestReplicaBootstrapFromCheckpoint opens the replica only after the primary
// has checkpointed and truncated its log: the checkpoint blob must carry the
// pre-truncation history, and tailing resumes above it.
func TestReplicaBootstrapFromCheckpoint(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	cfg.Durability.SegmentSize = 1 << 10 // rotate often so truncation bites
	db := MustOpen(kvDef("kv0"), cfg)
	t.Cleanup(db.Close)

	for i := 0; i < 60; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Two rounds: the second can truncate segments below the first's floor.
	for i := 0; i < 2; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	sub := storage.Sub("container-0")
	if segs, _ := sub.List(); len(segs) == 0 {
		t.Skip("no segments survived; nothing to tail")
	}

	rep, err := OpenReplica(db, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	// Live tail on top of the bootstrapped snapshot.
	for i := 60; i < 80; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("post-bootstrap put %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if v, present := readReplicaV(t, rep, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
	if st := rep.Stats(); st.Err != "" {
		t.Fatalf("replica error after bootstrap: %s", st.Err)
	}
}

// TestReplicaRestartResumesFromMirror closes a replica and reopens it on the
// same mirror storage: it must resume from its local mirror (not re-ship the
// whole log) and catch up with writes that happened while it was down.
func TestReplicaRestartResumesFromMirror(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	rep.Close()

	// The replica is down; the primary keeps committing.
	for i := 20; i < 40; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put while replica down %d: %v", i, err)
		}
	}

	rep2, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	t.Cleanup(rep2.Close)
	if err := rep2.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if v, present := readReplicaV(t, rep2, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
}

// TestReplicaPromotion opens the replica's mirror storage as a primary
// database and recovers: the promoted instance must hold exactly the shipped
// history — the mirror is byte-for-byte a valid WAL.
func TestReplicaPromotion(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	rep.Close()
	db.Close()

	promoted := MustOpen(kvDef("kv0"), walCfg(mirror))
	t.Cleanup(promoted.Close)
	if _, err := promoted.Recover(); err != nil {
		t.Fatalf("Recover on promoted mirror: %v", err)
	}
	for i := 0; i < n; i++ {
		if v, present := readV(t, promoted, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("promoted key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
	// The promoted primary accepts new writes with TIDs above all replicated
	// history.
	if _, err := promoted.Execute("kv0", "put", int64(0), int64(9)); err != nil {
		t.Fatalf("post-promotion put: %v", err)
	}
	if v, _ := readV(t, promoted, "kv0", 0); v != 9 {
		t.Fatalf("post-promotion write invisible: %d", v)
	}
}

// TestSemiSyncAckedCommitsSurviveReplicaCrash is the acceptance criterion
// "semi-sync never acks a commit the replica can lose": at ANY moment, a
// crash-copy of the replica's mirror (only fsynced bytes survive) promoted to
// a primary must hold every commit the primary acknowledged — no catch-up
// wait, no clean shutdown.
func TestSemiSyncAckedCommitsSurviveReplicaCrash(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Ack: AckSemiSync, Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Replica "crashes" right now: promote whatever is durable in the mirror.
	promoted := MustOpen(kvDef("kv0"), walCfg(mirror.CrashCopy()))
	t.Cleanup(promoted.Close)
	if _, err := promoted.Recover(); err != nil {
		t.Fatalf("Recover on crashed mirror: %v", err)
	}
	for i := 0; i < n; i++ {
		if v, present := readV(t, promoted, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("semi-sync acked key %d lost by replica crash: (%d, %v)", i, v, present)
		}
	}
}

// TestSemiSyncDegradesWhenReplicaMirrorFails: a semi-sync replica whose
// mirror device dies must detach (withdrawing its promise) rather than wedge
// the primary's commit path forever.
func TestSemiSyncDegradesWhenReplicaMirrorFails(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Ack: AckSemiSync, Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	if _, err := db.Execute("kv0", "put", int64(1), int64(1)); err != nil {
		t.Fatalf("put before failure: %v", err)
	}

	mirror.FailSyncs(errors.New("injected mirror device failure"))
	// Commits must keep completing: the replica detaches on its next mirror
	// attempt and semi-sync degrades to async.
	donePuts := make(chan error, 1)
	go func() {
		var err error
		for i := 2; i < 12 && err == nil; i++ {
			_, err = db.Execute("kv0", "put", int64(i), int64(i))
		}
		donePuts <- err
	}()
	select {
	case err := <-donePuts:
		if err != nil {
			t.Fatalf("puts after mirror failure: %v", err)
		}
	case <-time.After(replicaWait):
		t.Fatal("primary commit path wedged by failed semi-sync replica")
	}
	waitFor(t, replicaWait, func() bool { return rep.Stats().Degraded })
}

// --- Regression: ReplicaStats watermark sanity ------------------------------

// statsSane fails the test if any shard watermark wrapped or regressed below
// the checkpoint floor: Lag must never exceed the primary's durable LSN (an
// unguarded uint64 `durable - applied` wraps to ~2^64 the moment the applied
// watermark passes the sampled durable LSN), and Shipped/Mirrored/Applied must
// never read below Floor after a checkpoint fast-forward.
func statsSane(t *testing.T, st ReplicaStats) {
	t.Helper()
	for _, sh := range st.Shards {
		if sh.Lag > sh.PrimaryDurable {
			t.Fatalf("shard %d Lag wrapped: %+v", sh.Container, sh)
		}
		if sh.Shipped < sh.Floor || sh.Mirrored < sh.Floor || sh.Applied < sh.Floor {
			t.Fatalf("shard %d watermark below floor: %+v", sh.Container, sh)
		}
	}
}

// TestReplicaLagSaneAfterCheckpointFastForward restarts a replica on its old
// mirror after the primary checkpointed and truncated past it: openShard
// fast-forwards through the primary's newest checkpoint, which moves the
// applied watermark to the checkpoint floor in one step. Every Stats snapshot
// from reopen to caught-up must stay sane — this is the signal the wire
// router steers by, so a wrapped Lag or a below-floor Shipped would make it
// route around a healthy replica.
func TestReplicaLagSaneAfterCheckpointFastForward(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	cfg.Durability.SegmentSize = 1 << 10 // rotate often so truncation bites
	db := MustOpen(kvDef("kv0"), cfg)
	t.Cleanup(db.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	// Close the replica, then let the primary checkpoint twice and truncate
	// the segments the mirror would need to resume from.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rep.Close()
	for i := 20; i < 120; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put while replica down %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}

	rep2, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	t.Cleanup(rep2.Close)
	statsSane(t, rep2.Stats())
	if err := rep2.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	st := rep2.Stats()
	statsSane(t, st)
	for _, sh := range st.Shards {
		if sh.Lag != 0 {
			t.Fatalf("caught-up shard still lags: %+v", sh)
		}
	}
	for i := 0; i < 120; i++ {
		if v, present := readReplicaV(t, rep2, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
}

// TestReplicaLagClampWhenMirrorAheadOfPrimary is the underflow regression in
// its purest form: a mirror whose durable history is AHEAD of the primary it
// is attached to (the post-promotion shape — a surviving mirror re-pointed at
// a new primary that has not caught up to the old timeline). The applied
// watermark resumes above the primary's durable LSN, so the unguarded
// subtraction at the old internal/engine/replica.go:938 would report a Lag of
// ~2^64; the clamp must report zero.
func TestReplicaLagClampWhenMirrorAheadOfPrimary(t *testing.T) {
	mirror := wal.NewMemStorage()
	{
		storage := wal.NewMemStorage()
		db := MustOpen(kvDef("kv0"), walCfg(storage))
		rep, err := OpenReplica(db, ReplicaOptions{Storage: mirror})
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		for i := 0; i < 40; i++ {
			if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := rep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		rep.Close()
		db.Close()
	}

	// A new primary on the same definition with a much shorter history: its
	// durable LSN is far below the mirror's resume point.
	db2 := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
	t.Cleanup(db2.Close)
	for i := 0; i < 3; i++ {
		if _, err := db2.Execute("kv0", "put", int64(i), int64(i)); err != nil {
			t.Fatalf("new-primary put %d: %v", i, err)
		}
	}
	rep2, err := OpenReplica(db2, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("reattach replica: %v", err)
	}
	t.Cleanup(rep2.Close)
	st := rep2.Stats()
	for _, sh := range st.Shards {
		if sh.Applied <= sh.PrimaryDurable {
			t.Fatalf("scenario failed to put the applied watermark ahead of the primary: %+v", sh)
		}
		if sh.Lag != 0 {
			t.Fatalf("shard %d Lag = %d with applied %d ahead of durable %d, want 0",
				sh.Container, sh.Lag, sh.Applied, sh.PrimaryDurable)
		}
	}
}

// TestDegradedReplicaSurfacesMirrorFailureCause: when the mirror device dies,
// Stats().Err must explain WHY the replica degraded — before the fix the
// degrade path recorded only the append/sync error and dropped the close
// error, and Replica.Close discarded mirror close failures entirely. The
// replica must also keep applying for read availability after degrading.
func TestDegradedReplicaSurfacesMirrorFailureCause(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	mirror := wal.NewMemStorage()
	rep, err := OpenReplica(db, ReplicaOptions{Ack: AckSemiSync, Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	cause := errors.New("injected mirror device failure")
	mirror.FailSyncs(cause)
	for i := 10; i < 20; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put after mirror failure %d: %v", i, err)
		}
	}
	waitFor(t, replicaWait, func() bool { return rep.Stats().Degraded })
	if st := rep.Stats(); st.Err == "" ||
		!strings.Contains(st.Err, "degraded to async") ||
		!strings.Contains(st.Err, cause.Error()) {
		t.Fatalf("degraded replica Err = %q, want the mirror failure cause", st.Err)
	}
	// Degraded means no durability promise, not no reads: the apply loop keeps
	// tailing, so the writes made after the failure become visible.
	waitFor(t, replicaWait, func() bool {
		row, err := rep.ReadRow("kv0", "store", int64(19))
		return err == nil && row != nil && row.Int64(1) == 119
	})
	statsSane(t, rep.Stats())
}

// TestRebootstrapAdvancesAppliedWatermark pins the fast-forward half of the
// Lag fix at the unit level: fastForward installs a checkpoint whose
// floor is beyond everything the shard has applied, and must move the applied
// watermark up with the floor. Before the fix the watermark stayed stale until
// the next apply round with pending work, so Stats overstated Lag by the
// width of the truncation hole the checkpoint covered.
func TestRebootstrapAdvancesAppliedWatermark(t *testing.T) {
	storage := wal.NewMemStorage()
	db := MustOpen(kvDef("kv0"), walCfg(storage))
	t.Cleanup(db.Close)

	// A replica that never polls: its cursor and applied watermark stay at
	// zero while the primary's history grows.
	rep, err := OpenReplica(db, ReplicaOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	for i := 0; i < 40; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	rep.mu.Lock()
	s := rep.shards[0]
	if s.appliedTo != 0 {
		rep.mu.Unlock()
		t.Fatalf("shard applied %d before any poll, want 0", s.appliedTo)
	}
	if _, err := rep.fastForward(s, s.lastShipped+1); err != nil {
		rep.mu.Unlock()
		t.Fatalf("fastForward: %v", err)
	}
	floor, applied := s.floor, s.appliedTo
	rep.mu.Unlock()
	if floor == 0 {
		t.Fatal("checkpoint installed a zero floor; the scenario proves nothing")
	}
	if applied != floor {
		t.Fatalf("applied watermark %d after rebootstrap, want the new floor %d", applied, floor)
	}
	statsSane(t, rep.Stats())
}

// --- Satellite: differential primary-vs-replica query workload -------------

// TestReplicaDifferentialQueryWorkload runs an identical declarative query
// workload against the primary and a caught-up replica: every result must be
// identical — rows, aggregates, and the access paths the planner chose
// (including secondary-index paths, proving replicated index maintenance).
func TestReplicaDifferentialQueryWorkload(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := Config{
		Containers:            1,
		ExecutorsPerContainer: 2,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage},
	}
	db := openShop(t, cfg, "shop-0")
	newShopSeed().load(t, db, "shop-0")
	// Loader rows are not logged; the checkpoint blob carries them, and the
	// replica's bootstrap installs it — the checkpoint-transfer path.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	rep, err := OpenReplica(db, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	// An index-moving, index-inserting, index-deleting mutation mix: the
	// replica must track every entry migration.
	for i := 0; i < 8; i++ {
		if _, err := db.Execute("shop-0", "add_order", int64(100+i), int64(i%4+1), fmt.Sprintf("b%d", i%3), float64(i)); err != nil {
			t.Fatalf("add_order: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Execute("shop-0", "move_branch", int64(100+i), "moved"); err != nil {
			t.Fatalf("move_branch: %v", err)
		}
	}
	if _, err := db.Execute("shop-0", "del_order", int64(104)); err != nil {
		t.Fatalf("del_order: %v", err)
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	queries := map[string]func() *rel.Query{
		"pk-point": func() *rel.Query {
			return rel.NewQuery().From("o", "orders", "shop-0").
				Where("o", "order_id", rel.Eq, int64(101)).
				Select("o.order_id", "o.branch", "o.total")
		},
		"index-by-cust": func() *rel.Query {
			return rel.NewQuery().From("o", "orders", "shop-0").
				Where("o", "cust", rel.Eq, int64(2)).
				OrderBy("o.order_id", false).
				Select("o.order_id", "o.total")
		},
		"index-by-branch-moved": func() *rel.Query {
			return rel.NewQuery().From("o", "orders", "shop-0").
				Where("o", "branch", rel.Eq, "moved").
				OrderBy("o.order_id", false).
				Select("o.order_id")
		},
		"join-groupby": func() *rel.Query {
			return rel.NewQuery().From("c", "custs", "shop-0").From("o", "orders", "shop-0").
				Join("c", "cust_id", "o", "cust").
				GroupBy("c.region").
				Sum("o.total", "total").Count("n").
				OrderBy("c.region", false)
		},
		"full-scan": func() *rel.Query {
			return rel.NewQuery().From("o", "orders", "shop-0").
				OrderBy("o.total", true).Limit(5).
				Select("o.order_id", "o.total")
		},
	}
	for name, mk := range queries {
		pres, err := db.Query(mk())
		if err != nil {
			t.Fatalf("%s on primary: %v", name, err)
		}
		rres, err := rep.Query(mk())
		if err != nil {
			t.Fatalf("%s on replica: %v", name, err)
		}
		if !reflect.DeepEqual(pres.Rows, rres.Rows) {
			t.Fatalf("%s diverged:\nprimary %v\nreplica %v", name, pres.Rows, rres.Rows)
		}
		if !reflect.DeepEqual(pres.AccessPaths, rres.AccessPaths) {
			t.Fatalf("%s access paths diverged:\nprimary %v\nreplica %v", name, pres.AccessPaths, rres.AccessPaths)
		}
	}
	// Pin that the interesting paths really were index paths on BOTH sides —
	// a silent fallback to full scans would hollow the test out.
	res, err := rep.Query(queries["index-by-cust"]())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPaths["o"] != "index:by_cust" {
		t.Fatalf("replica chose %q for cust equality, want index:by_cust", res.AccessPaths["o"])
	}
	res, err = rep.Query(queries["index-by-branch-moved"]())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPaths["o"] != "index:by_branch" {
		t.Fatalf("replica chose %q for branch equality, want index:by_branch", res.AccessPaths["o"])
	}
}

// TestInstallRecordInstallsWhatResolves pins the one policy recovery and the
// replica share a function for: a record carrying a write whose key does not
// resolve here (a reactor placed elsewhere) still has its other writes
// installed and its TID observed, and the error comes back — recovery fails on
// it, a replica records it in Stats and keeps serving.
func TestInstallRecordInstallsWhatResolves(t *testing.T) {
	storage := wal.NewMemStorage()
	src := MustOpen(kvDef("kv0"), walCfg(storage))
	if _, err := src.Execute("kv0", "put", int64(7), int64(70)); err != nil {
		t.Fatalf("put: %v", err)
	}
	src.Close()
	buf, err := storage.Sub("container-0").ReadSegment(0)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	recs, _ := wal.DecodeAll(buf)
	if len(recs) != 1 || len(recs[0].Writes) != 1 {
		t.Fatalf("primary log holds %+v, want the one put", recs)
	}
	rec := recs[0]
	rec.Writes = append([]wal.Write{{Key: "elsewhere\x00store\x00k", Data: []byte("x")}}, rec.Writes...)

	db := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
	t.Cleanup(db.Close)
	err = db.containers[0].installRecord(&rec)
	if err == nil || !strings.Contains(err.Error(), `reactor "elsewhere" not mapped`) {
		t.Fatalf("installRecord = %v, want the unmapped-reactor error", err)
	}
	if v, present := readV(t, db, "kv0", 7); !present || v != 70 {
		t.Fatalf("kv0[7] = (%d, %v) after a partly unresolvable record, want 70", v, present)
	}
	if w := db.containers[0].domain.TIDWatermark(); w <= rec.TID {
		t.Fatalf("TID watermark %d not past the installed record's TID %d", w, rec.TID)
	}
}
