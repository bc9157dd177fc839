package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"reactdb/internal/wal"
)

// This file is the failover crash matrix: the primary is killed at every one
// of its storage IO boundaries — mid-workload, with two semi-sync replicas
// tailing — and a Supervisor must detect the death by heartbeat, fence the
// corpse, promote the freshest replica, and re-point the survivor. Each
// matrix point then asserts the black-box contract on the promoted primary
// (no acknowledged commit lost, per-container history prefixes, 2PC pairs
// atomic), checks the survivor converges on the same history, re-attaches
// the dead primary's crash-frozen storage as a replica, and finishes with
// the double-restart drill. `make crash-failover` runs exactly these tests.

// supTestOpts: probe fast so a ~40-point matrix stays quick, but require two
// consecutive misses so a single unlucky boundary doesn't depose a primary
// that was still healthy in a calibration run.
func supTestOpts() SupervisorOptions {
	return SupervisorOptions{Interval: time.Millisecond, Misses: 2}
}

// TestCrashFailoverPrimaryKillMatrix is the tentpole matrix. The crash
// counter wedges the primary's storage at each boundary; from that moment
// every append and fsync fails, heartbeats with them, and the supervisor
// must drive the full failover. Because supervisor heartbeats themselves
// consume storage operations, the matrix sweeps the calibration range of
// workload-only boundaries; individual points land on slightly different
// workload positions run to run, which only varies WHERE the kill lands —
// every run is judged against its own acknowledgment record.
func TestCrashFailoverPrimaryKillMatrix(t *testing.T) {
	def := kvDef("kv0", "kv1")

	// Calibration: count the primary's storage boundaries over the scripted
	// workload with no supervisor probing.
	calibrate := func() int64 {
		mem := wal.NewMemStorage()
		ctr := &crashCounter{crashAt: -1}
		primary := MustOpen(def, replPrimaryCfg(&crashStorage{inner: mem, ctr: ctr}))
		repA, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
		if err != nil {
			t.Fatalf("calibration OpenReplica: %v", err)
		}
		repB, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
		if err != nil {
			t.Fatalf("calibration OpenReplica B: %v", err)
		}
		ops := append(runReplPhase1(primary), runReplPhase2(primary)...)
		for _, op := range ops {
			if !op.acked {
				t.Fatalf("crash-free run did not acknowledge every op: %+v", ops)
			}
		}
		repA.Close()
		repB.Close()
		primary.Close()
		return ctr.ops.Load()
	}
	total := calibrate()
	t.Logf("calibration: %d primary IO boundaries", total)
	if total < 10 {
		t.Fatalf("calibration produced only %d primary IO boundaries", total)
	}

	for crashAt := int64(0); crashAt <= total; crashAt++ {
		label := fmt.Sprintf("failover crashAt=%d", crashAt)
		mem := wal.NewMemStorage()
		ctr := &crashCounter{crashAt: crashAt}
		old := MustOpen(def, replPrimaryCfg(&crashStorage{inner: mem, ctr: ctr}))
		repA, err := OpenReplica(old, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
		if err != nil {
			t.Fatalf("%s: OpenReplica A: %v", label, err)
		}
		repB, err := OpenReplica(old, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
		if err != nil {
			t.Fatalf("%s: OpenReplica B: %v", label, err)
		}
		sup := NewSupervisor(old, []*Replica{repA, repB}, supTestOpts())
		sup.Start()

		// The workload races the kill: ops past the crash point fail and are
		// recorded unacknowledged. The dead primary's crash-frozen bytes are
		// captured before anything else can touch them.
		ops := append(runReplPhase1(old), runReplPhase2(old)...)
		oldBytes := mem.CrashCopy()

		// The supervisor must depose the primary on its own: the wedged
		// storage fails heartbeats even if every workload op happened to land
		// before the crash point.
		waitFor(t, replicaWait, func() bool { return sup.Stats().Failovers >= 1 })
		sup.Stop()

		promoted := sup.Primary()
		if promoted == old {
			t.Fatalf("%s: failover did not install a new primary", label)
		}
		if got := promoted.Epoch(); got != 1 {
			t.Fatalf("%s: promoted primary at epoch %d, want 1", label, got)
		}
		if !old.Fenced() {
			t.Fatalf("%s: deposed primary not fenced", label)
		}
		// A zombie write on the deposed primary must be rejected — by the
		// fence, or by its already-wedged log; never acknowledged.
		if _, err := old.Execute("kv0", "put", int64(900), int64(9000)); err == nil {
			t.Fatalf("%s: deposed primary acknowledged a zombie write", label)
		}

		// Black-box check on the new primary: every acknowledged commit
		// present, per-container prefixes, 2PC pairs atomic.
		assertReplPrefix(t, promoted, ops, true, true, label)

		// The new primary serves a fresh multi-container commit, with the
		// re-pointed survivor acknowledging it semi-sync.
		survivors := sup.Replicas()
		if len(survivors) != 1 {
			t.Fatalf("%s: %d survivors after failover, want 1", label, len(survivors))
		}
		if _, err := promoted.Execute("kv0", "copyTo", "kv1", int64(7), int64(70)); err != nil {
			t.Fatalf("%s: post-failover copyTo: %v", label, err)
		}
		surv := survivors[0]
		if err := surv.WaitCaughtUp(replicaWait); err != nil {
			t.Fatalf("%s: survivor catch-up: %v", label, err)
		}
		if v, p := readReplicaV(t, surv, "kv0", 7); !p || v != 70 {
			t.Fatalf("%s: survivor kv0[7] = (%d, %v), want 70", label, v, p)
		}
		assertReplPrefix(t, surv.Database(), ops, true, true, label+" (survivor)")
		surv.Close()

		// Re-attach the dead primary's crash-frozen storage as a replica of
		// the new primary: divergence repair must unwind its unacknowledged
		// suffix and converge on the promoted history.
		zrep, err := ReattachStorage(oldBytes, promoted, ReplicaOptions{})
		if err != nil {
			t.Fatalf("%s: reattach old primary storage: %v", label, err)
		}
		if err := zrep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatalf("%s: reattached replica catch-up: %v", label, err)
		}
		if v, p := readReplicaV(t, zrep, "kv0", 7); !p || v != 70 {
			t.Fatalf("%s: reattached kv0[7] = (%d, %v), want 70", label, v, p)
		}
		assertReplPrefix(t, zrep.Database(), ops, true, true, label+" (reattached)")
		zrep.Close()

		// Double-restart drill on the promoted storage: the epoch state and
		// history must survive a clean restart and another recovery.
		cfg2 := promoted.Config()
		promoted.Close()
		db2 := MustOpen(def, cfg2)
		if _, err := db2.Recover(); err != nil {
			t.Fatalf("%s: restart Recover: %v", label, err)
		}
		if got := db2.Epoch(); got != 1 {
			t.Fatalf("%s: restarted primary at epoch %d, want 1", label, got)
		}
		assertReplPrefix(t, db2, ops, true, true, label+" (restart)")
		for _, r := range []string{"kv0", "kv1"} {
			if v, p := readV(t, db2, r, 7); !p || v != 70 {
				t.Fatalf("%s: post-failover commit lost on %s after restart: (%d, %v)", label, r, v, p)
			}
		}
		db2.Close()
		old.Close()
	}
}

// TestCrashFailoverZombieFence proves the fence does the work, both ways.
// The positive arm runs a planned switchover on a LIVE primary: the fence
// must reject its writes with ErrFenced at the WAL layer, immediately and
// across a restart of the zombie (the durable fence — storage-level STONITH).
// The ablation arm repeats the scenario WITHOUT fencing and demonstrates the
// exact anomaly the fence exists to prevent: the unfenced zombie
// acknowledges a write after promotion, and that acknowledged write is not
// on the new primary — a lost ack. Remove the fence from Failover and the
// positive arm fails the same way.
func TestCrashFailoverZombieFence(t *testing.T) {
	def := kvDef("kv0", "kv1")

	// Positive arm: supervised failover fences the live primary.
	memA := wal.NewMemStorage()
	a := MustOpen(def, crashCfg(memA, true))
	rep, err := OpenReplica(a, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	if !exec1(a, "kv0", "put", int64(1), int64(10)) || !exec1(a, "kv0", "copyTo", "kv1", int64(2), int64(20)) {
		t.Fatal("seed writes failed")
	}
	sup := NewSupervisor(a, []*Replica{rep}, supTestOpts())
	promoted, err := sup.Failover()
	if err != nil {
		t.Fatalf("manual Failover: %v", err)
	}
	if !a.Fenced() || a.Epoch() != 0 {
		t.Fatalf("old primary fenced=%v epoch=%d, want fenced at epoch 0", a.Fenced(), a.Epoch())
	}
	if promoted.Epoch() != 1 || promoted.Fenced() {
		t.Fatalf("promoted epoch=%d fenced=%v, want epoch 1 unfenced", promoted.Epoch(), promoted.Fenced())
	}
	if _, err := a.Execute("kv0", "put", int64(3), int64(30)); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie write error = %v, want ErrFenced", err)
	}
	// The new primary serves reads of the old history and fresh writes.
	if v, p := readV(t, promoted, "kv0", 1); !p || v != 10 {
		t.Fatalf("promoted kv0[1] = (%d, %v), want 10", v, p)
	}
	if !exec1(promoted, "kv0", "put", int64(4), int64(40)) {
		t.Fatal("write on promoted primary failed")
	}

	// Restart the zombie over its own storage: the durable fence must hold.
	a.Close()
	a2 := MustOpen(def, crashCfg(memA, true))
	if _, err := a2.Recover(); err != nil {
		t.Fatalf("zombie restart Recover: %v", err)
	}
	if !a2.Fenced() {
		t.Fatal("restarted zombie is not fenced — the fence never became durable")
	}
	if _, err := a2.Execute("kv0", "put", int64(5), int64(50)); !errors.Is(err, ErrFenced) {
		t.Fatalf("restarted zombie write error = %v, want ErrFenced", err)
	}
	a2.Close()

	// The fenced storage re-joins the cluster as a replica (fence state
	// untouched — only a promotion with a high enough epoch may lift it).
	zrep, err := ReattachStorage(memA, promoted, ReplicaOptions{})
	if err != nil {
		t.Fatalf("reattach fenced storage: %v", err)
	}
	if err := zrep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	if v, p := readReplicaV(t, zrep, "kv0", 4); !p || v != 40 {
		t.Fatalf("reattached kv0[4] = (%d, %v), want 40", v, p)
	}
	zrep.Close()
	promoted.Close()

	// Ablation arm: promotion WITHOUT fencing. The zombie keeps
	// acknowledging writes (the replica's detach degraded it to async), and
	// the acknowledged write is lost from the promoted primary's history —
	// the anomaly a fenced failover makes impossible.
	b := MustOpen(def, crashCfg(wal.NewMemStorage(), true))
	repB, err := OpenReplica(b, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("ablation OpenReplica: %v", err)
	}
	if !exec1(b, "kv0", "put", int64(1), int64(10)) {
		t.Fatal("ablation seed write failed")
	}
	promotedB, err := PromoteReplica(repB, 1) // no Fence(b, ...) — the ablation
	if err != nil {
		t.Fatalf("ablation promote: %v", err)
	}
	if !exec1(b, "kv0", "put", int64(6), int64(60)) {
		t.Fatal("unfenced zombie refused the write; expected it to acknowledge")
	}
	if _, p := readV(t, promotedB, "kv0", 6); p {
		t.Fatal("zombie write visible on the promoted primary — test premise broken")
	}
	// kv0[6] was ACKNOWLEDGED by the zombie yet exists only there: any
	// client routed to the new primary has lost an acked commit.
	b.Close()
	promotedB.Close()
}

// TestCrashFailoverFileStorageShipping runs the whole pipeline — ship,
// mirror, semi-sync ack, promote, re-attach — over real files in two
// directories, then restarts the promoted primary from disk. This is the
// deployment shape: primary and replica on separate filesystems, failover by
// opening the replica's directory.
func TestCrashFailoverFileStorageShipping(t *testing.T) {
	def := kvDef("kv0", "kv1")
	dirA, dirB := t.TempDir(), t.TempDir()
	fsA := wal.NewFileStorage(dirA)

	primary := MustOpen(def, crashCfg(fsA, true))
	for i := int64(0); i < 8; i++ {
		if !exec1(primary, "kv0", "put", i, 100+i) || !exec1(primary, "kv1", "put", i, 200+i) {
			t.Fatalf("seed put %d failed", i)
		}
	}
	// Checkpoint before the replica attaches so bootstrap exercises the
	// file-to-file checkpoint blob copy, not just log shipping.
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rep, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: wal.NewFileStorage(dirB)})
	if err != nil {
		t.Fatalf("OpenReplica over files: %v", err)
	}
	for i := int64(8); i < 16; i++ {
		if !exec1(primary, "kv0", "put", i, 100+i) || !exec1(primary, "kv1", "copyTo", "kv0", 1000+i, 500+i) {
			t.Fatalf("live put %d failed", i)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	// Fence the primary (planned switchover), then promote the replica's
	// directory.
	if err := primary.Fence(1); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	promoted, err := PromoteReplica(rep, 1)
	if err != nil {
		t.Fatalf("promote file replica: %v", err)
	}
	primary.Close()
	for i := int64(0); i < 16; i++ {
		if v, p := readV(t, promoted, "kv0", i); !p || v != 100+i {
			t.Fatalf("promoted kv0[%d] = (%d, %v), want %d", i, v, p, 100+i)
		}
	}
	if !exec1(promoted, "kv0", "copyTo", "kv1", int64(77), int64(770)) {
		t.Fatal("write on promoted file primary failed")
	}

	// Re-attach the old directory as a replica of the new primary.
	zrep, err := ReattachStorage(fsA, promoted, ReplicaOptions{})
	if err != nil {
		t.Fatalf("reattach dirA: %v", err)
	}
	if err := zrep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	if v, p := readReplicaV(t, zrep, "kv0", 77); !p || v != 770 {
		t.Fatalf("reattached kv0[77] = (%d, %v), want 770", v, p)
	}
	zrep.Close()

	// Restart the promoted primary from its files.
	cfg2 := promoted.Config()
	promoted.Close()
	db2 := MustOpen(def, cfg2)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("file restart Recover: %v", err)
	}
	if db2.Epoch() != 1 {
		t.Fatalf("restarted file primary at epoch %d, want 1", db2.Epoch())
	}
	for _, r := range []string{"kv0", "kv1"} {
		if v, p := readV(t, db2, r, 77); !p || v != 770 {
			t.Fatalf("restarted %s[77] = (%d, %v), want 770", r, v, p)
		}
	}
	db2.Close()
}
