package engine

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// repointDB opens a two-container primary over storage: kv0 and the indexed
// shop-0 on container 0, kv1 on container 1, the shop seed loaded and
// checkpointed, so a replica bootstraps from a blob and maintains secondary
// indexes.
func repointDB(t *testing.T, storage wal.Storage) *Database {
	t.Helper()
	def := core.NewDatabaseDef().MustAddType(kvType()).MustAddType(shopType())
	def.MustDeclareReactors("KV", "kv0", "kv1")
	def.MustDeclareReactors("Shop", "shop-0")
	cfg := twoContainerCfg(storage)
	cfg.Placement = func(reactor string) int {
		if reactor == "kv1" {
			return 1
		}
		return 0
	}
	db := MustOpen(def, cfg)
	newShopSeed().load(t, db, "shop-0")
	return db
}

// shopQueries are index, join and scan queries over shop-0.
var shopQueries = []func() *rel.Query{
	func() *rel.Query {
		return rel.NewQuery().From("o", "orders", "shop-0").
			Where("o", "cust", rel.Eq, int64(2)).OrderBy("o.order_id", false).Select("o.order_id", "o.total")
	},
	func() *rel.Query {
		return rel.NewQuery().From("o", "orders", "shop-0").
			Where("o", "branch", rel.Eq, "moved").OrderBy("o.order_id", false).Select("o.order_id")
	},
	func() *rel.Query {
		return rel.NewQuery().From("c", "custs", "shop-0").From("o", "orders", "shop-0").
			Join("c", "cust_id", "o", "cust").GroupBy("c.region").Sum("o.total", "total").Count("n").
			OrderBy("c.region", false)
	},
}

// TestRepointInPlaceEqualsReopen: a survivor whose mirror is a prefix of the
// promoted node's is re-pointed in place — the same database serves reads
// throughout — and ends in the state a fresh replica opened over a copy of its
// mirror reaches: rows, secondary-index query results and applied watermarks.
// It is caught, as the promoted replica is, holding a transfer's decision
// staged (the other participant's prepare is not durable) with commits staged
// behind it, and its resolver holding the transfer's mirrored prepare: it must
// drop what it staged, follow from the end of its mirror and retract the
// prepare by the presume-abort tombstone the promotion wrote.
func TestRepointInPlaceEqualsReopen(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	// Container 1's syncs: the put below, the first transfer's prepare, then
	// the held transfer's prepare.
	primary := repointDB(t, newGateSyncStorage("container-1", 3, gate))
	t.Cleanup(primary.Close)
	t.Cleanup(release) // before Close, which waits for the held commit
	for i := int64(0); i < 4; i++ {
		if _, err := primary.Execute("kv0", "put", 10+i, i); err != nil {
			t.Fatalf("put kv0: %v", err)
		}
	}
	if _, err := primary.Execute("kv1", "put", int64(10), int64(1)); err != nil {
		t.Fatalf("put kv1: %v", err)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := primary.Execute("kv0", "copyTo", "kv1", int64(11), int64(7)); err != nil {
		t.Fatalf("copyTo before the held one: %v", err)
	}
	shop := func(db *Database, i int64) {
		t.Helper()
		if _, err := db.Execute("shop-0", "add_order", 100+i, i%4+1, "b", float64(i)); err != nil {
			t.Fatalf("add_order: %v", err)
		}
		if _, err := db.Execute("shop-0", "move_branch", 1+i, "moved"); err != nil {
			t.Fatalf("move_branch: %v", err)
		}
	}
	shop(primary, 0)
	if _, err := primary.Execute("shop-0", "del_order", int64(2)); err != nil {
		t.Fatalf("del_order: %v", err)
	}

	candidate, err := newReplica(primary, ReplicaOptions{})
	if err != nil {
		t.Fatalf("newReplica candidate: %v", err)
	}
	t.Cleanup(candidate.Close)
	mirror := wal.NewMemStorage()
	rep, err := newReplica(primary, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("newReplica survivor: %v", err)
	}
	t.Cleanup(rep.Close)
	c0 := primary.containers[0].wal
	base := c0.LastLSN()
	held := make(chan error, 1)
	go func() {
		_, err := primary.Execute("kv0", "copyTo", "kv1", int64(1), int64(10))
		held <- err
	}()
	// The coordinator's share — its prepare and the decision — is durable.
	waitFor(t, replicaWait, func() bool { return c0.DurableLSN() >= base+2 })
	// Updates only: an insert into kv0 would wait for the held transfer's
	// structural latch.
	if _, err := primary.Execute("kv0", "put", int64(12), int64(20)); err != nil {
		t.Fatalf("put behind the held transfer: %v", err)
	}
	if _, err := primary.Execute("shop-0", "move_branch", int64(5), "moved"); err != nil {
		t.Fatalf("move_branch behind the held transfer: %v", err)
	}
	for _, r := range []*Replica{candidate, rep} {
		r.pollOnce()
		r.mu.Lock()
		staged := len(r.shards[0].staged)
		r.mu.Unlock()
		if staged < 3 {
			t.Fatalf("%d frames staged on the coordinator's shard, want the held decision and the commits behind it", staged)
		}
	}

	promoted, err := PromoteReplica(candidate, 1)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}
	release()
	<-held

	db := rep.Database()
	stop := make(chan struct{})
	var reads atomic.Int64
	readErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readErr <- nil
				return
			default:
			}
			if _, err := rep.Database().Execute("kv0", "get", int64(10)); err != nil {
				readErr <- err
				return
			}
			if _, err := rep.Database().Query(shopQueries[0]()); err != nil && !errors.Is(err, ErrConflict) {
				readErr <- err
				return
			}
			reads.Add(1)
		}
	}()
	waitFor(t, replicaWait, func() bool { return reads.Load() > 0 })
	err = Repoint(rep, promoted)
	n := reads.Load()
	waitFor(t, replicaWait, func() bool { return reads.Load() > n })
	close(stop)
	if err != nil {
		t.Fatalf("Repoint: %v", err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("read during the re-point: %v", err)
	}
	if rep.Database() != db {
		t.Fatalf("a clean survivor's database was replaced: the re-point reopened it")
	}

	if _, err := promoted.Execute("kv0", "copyTo", "kv1", int64(3), int64(30)); err != nil {
		t.Fatalf("copyTo on the promoted primary: %v", err)
	}
	shop(promoted, 1)
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenReplica(promoted, ReplicaOptions{Storage: mirror.CrashCopy()})
	if err != nil {
		t.Fatalf("OpenReplica over a copy of the mirror: %v", err)
	}
	t.Cleanup(fresh.Close)
	if err := fresh.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}

	if got, want := committedRows(rep.Database()), committedRows(fresh.Database()); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-pointed in place holds\n%v\na reopen of its mirror holds\n%v", got, want)
	}
	for i, q := range shopQueries {
		got, err := rep.Database().Query(q())
		if err != nil {
			t.Fatalf("query %d on the re-pointed replica: %v", i, err)
		}
		want, err := fresh.Database().Query(q())
		if err != nil {
			t.Fatalf("query %d on the reopened replica: %v", i, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.AccessPaths, want.AccessPaths) {
			t.Fatalf("query %d: re-pointed %v %v, reopened %v %v", i, got.Rows, got.AccessPaths, want.Rows, want.AccessPaths)
		}
	}
	got, want := rep.Stats().Shards, fresh.Stats().Shards
	for i := range got {
		if got[i].Applied != want[i].Applied {
			t.Fatalf("shard %d applied through %d re-pointed, %d reopened", i, got[i].Applied, want[i].Applied)
		}
	}
	if v, _ := readV(t, rep.Database(), "kv0", 12); v != 2 {
		t.Fatalf("kv0[12] = %d: the commit staged behind the held decision was installed", v)
	}
	if v, present := readV(t, rep.Database(), "kv1", 3); !present || v != 30 {
		t.Fatalf("kv1[3] = (%d, %v), want the promoted primary's 30", v, present)
	}
}

// TestRepointHealthUnboundedUntilFollowing holds a re-point inside its
// reopen — the new database already serves reads, loaded from a mirror cut
// back to the promotion cut, but follows no primary yet — and asks for
// Health, which a replica server runs on every bounded read: the lag is
// unbounded, so every bound is refused, until the replica follows again.
func TestRepointHealthUnboundedUntilFollowing(t *testing.T) {
	primary := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
	t.Cleanup(primary.Close)
	candidate, err := newReplica(primary, ReplicaOptions{})
	if err != nil {
		t.Fatalf("newReplica: %v", err)
	}
	t.Cleanup(candidate.Close)
	rep, err := OpenReplica(primary, ReplicaOptions{})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	if _, err := primary.Execute("kv0", "put", int64(5), int64(50)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	if err := primary.Fence(1); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	promoted, err := PromoteReplica(candidate, 1)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}

	// follow takes the new primary's checkpoint lock to attach: holding it
	// stops Repoint after its reopen.
	db := rep.Database()
	promoted.ckptMu.Lock()
	release := sync.OnceFunc(promoted.ckptMu.Unlock)
	repointed := make(chan error, 1)
	go func() { repointed <- Repoint(rep, promoted) }()
	t.Cleanup(func() { release(); <-repointed }) // before rep.Close
	waitFor(t, replicaWait, func() bool { return rep.Database() != db })
	lags := make(chan uint64, 1)
	go func() {
		lag, _, _ := rep.Health()
		lags <- lag
	}()
	select {
	case lag := <-lags:
		if lag != math.MaxUint64 {
			t.Fatalf("Health inside the re-point reports lag %d, want unbounded", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Health waited out the re-point")
	}
	release()
	if err := <-repointed; err != nil {
		t.Fatalf("Repoint: %v", err)
	}
	repointed <- nil // for the cleanup
	if lag, degraded, err := rep.Health(); lag != 0 || degraded || err != nil {
		t.Fatalf("Health after the re-point = (%d, %v, %v), want lag 0, healthy", lag, degraded, err)
	}
}

// TestRepointDivergedReopens: a survivor that applied what the new timeline
// does not hold takes the reopen path. The candidate ships nothing, so its
// promotion cut is zero, while the survivor tails and serves key 5: the
// re-point must replace the survivor's database, and key 5 is gone. A
// degraded survivor — it feeds what it ships without mirroring it — is
// reopened too, even when its mirror is a prefix of the new primary's.
func TestRepointDivergedReopens(t *testing.T) {
	t.Run("fresher", func(t *testing.T) {
		primary := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
		t.Cleanup(primary.Close)
		candidate, err := newReplica(primary, ReplicaOptions{})
		if err != nil {
			t.Fatalf("newReplica: %v", err)
		}
		t.Cleanup(candidate.Close)
		rep, err := OpenReplica(primary, ReplicaOptions{})
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		t.Cleanup(rep.Close)
		if _, err := primary.Execute("kv0", "put", int64(5), int64(50)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := rep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		if v, present := readReplicaV(t, rep, "kv0", 5); !present || v != 50 {
			t.Fatalf("survivor serves kv0[5] = (%d, %v), want 50", v, present)
		}
		if err := primary.Fence(1); err != nil {
			t.Fatalf("Fence: %v", err)
		}
		promoted, err := PromoteReplica(candidate, 1)
		if err != nil {
			t.Fatalf("PromoteReplica: %v", err)
		}
		if !reflect.DeepEqual(promoted.term.Cut(), []uint64{0}) {
			t.Fatalf("promotion cut %v, want [0]", promoted.term.Cut())
		}
		db := rep.Database()
		if err := Repoint(rep, promoted); err != nil {
			t.Fatalf("Repoint: %v", err)
		}
		if rep.Database() == db {
			t.Fatalf("the survivor kept its database: its applied kv0[5] is not on the new timeline")
		}
		if _, present := readReplicaV(t, rep, "kv0", 5); present {
			t.Fatalf("the re-pointed survivor still serves kv0[5], which the new primary never held")
		}
		if _, err := promoted.Execute("kv0", "put", int64(6), int64(60)); err != nil {
			t.Fatalf("put on the promoted primary: %v", err)
		}
		if err := rep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		if v, present := readReplicaV(t, rep, "kv0", 6); !present || v != 60 {
			t.Fatalf("survivor serves kv0[6] = (%d, %v), want 60", v, present)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		primary := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
		t.Cleanup(primary.Close)
		candidate, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync})
		if err != nil {
			t.Fatalf("OpenReplica candidate: %v", err)
		}
		t.Cleanup(candidate.Close)
		mirror := wal.NewMemStorage()
		rep, err := OpenReplica(primary, ReplicaOptions{Storage: mirror})
		if err != nil {
			t.Fatalf("OpenReplica survivor: %v", err)
		}
		t.Cleanup(rep.Close)
		if _, err := primary.Execute("kv0", "put", int64(1), int64(10)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := rep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		mirror.FailWrites(errors.New("mirror disk full"))
		if _, err := primary.Execute("kv0", "put", int64(2), int64(20)); err != nil {
			t.Fatalf("put: %v", err)
		}
		waitFor(t, replicaWait, func() bool { return rep.Stats().Degraded })
		if v, present := readReplicaV(t, rep, "kv0", 2); !present || v != 20 {
			t.Fatalf("degraded survivor serves kv0[2] = (%d, %v), want 20", v, present)
		}
		mirror.FailWrites(nil)
		if err := primary.Fence(1); err != nil {
			t.Fatalf("Fence: %v", err)
		}
		promoted, err := PromoteReplica(candidate, 1)
		if err != nil {
			t.Fatalf("PromoteReplica: %v", err)
		}
		db := rep.Database()
		if err := Repoint(rep, promoted); err != nil {
			t.Fatalf("Repoint: %v", err)
		}
		if rep.Database() == db {
			t.Fatalf("the degraded survivor kept its database")
		}
		if err := rep.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		if rep.Stats().Degraded {
			t.Fatalf("the reopened survivor is still degraded")
		}
		if v, present := readReplicaV(t, rep, "kv0", 2); !present || v != 20 {
			t.Fatalf("reopened survivor serves kv0[2] = (%d, %v), want 20", v, present)
		}
	})
}

// TestFailoverAfterFailedPromotion: a candidate whose promotion fails (its
// storage cannot stamp the new epoch) is closed by the attempt, and the
// supervisor drops it, so the next attempt promotes the healthy replica
// instead of picking the closed one forever.
func TestFailoverAfterFailedPromotion(t *testing.T) {
	primary := MustOpen(kvDef("kv0"), walCfg(wal.NewMemStorage()))
	t.Cleanup(primary.Close)
	xStorage := wal.NewMemStorage()
	x, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: xStorage})
	if err != nil {
		t.Fatalf("OpenReplica x: %v", err)
	}
	t.Cleanup(x.Close)
	y, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync})
	if err != nil {
		t.Fatalf("OpenReplica y: %v", err)
	}
	t.Cleanup(y.Close)
	if _, err := primary.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, r := range []*Replica{x, y} {
		if err := r.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
	}
	xStorage.FailSyncs(errors.New("x's disk is gone"))

	sup := NewSupervisor(primary, []*Replica{x, y}, SupervisorOptions{})
	if _, err := sup.Failover(); err == nil {
		t.Fatalf("the first failover promoted x over storage that cannot sync")
	}
	var promoted *Database
	for attempt := 0; attempt < 3 && promoted == nil; attempt++ {
		promoted, err = sup.Failover()
	}
	if err != nil {
		t.Fatalf("failover after a failed promotion: %v", err)
	}
	if promoted != y.Database() {
		t.Fatalf("failover promoted a database other than y's")
	}
	if v, present := readV(t, promoted, "kv0", 1); !present || v != 10 {
		t.Fatalf("promoted kv0[1] = (%d, %v), want 10", v, present)
	}
	if rs := sup.Replicas(); len(rs) != 0 {
		t.Fatalf("%d replicas left after promoting y, want none", len(rs))
	}
}

// TestRepointAfterPromotedRestart: the promotion cut is part of the node's
// durable term, so divergence repair against a promoted primary that has
// since restarted (Open + Recover) still reconciles other nodes' logs against
// the cut, not against the restarted node's durable LSN — which its new
// timeline can have grown to match an old-timeline suffix LSN for LSN.
func TestRepointAfterPromotedRestart(t *testing.T) {
	// setup opens a primary, a candidate that ships only when polled and a
	// tailing survivor, all over storage the test keeps.
	setup := func(t *testing.T) (primary *Database, memP, memA wal.Storage, candidate, survivor *Replica) {
		t.Helper()
		memP, memA = wal.NewMemStorage(), wal.NewMemStorage()
		primary = MustOpen(kvDef("kv0"), walCfg(memP))
		t.Cleanup(primary.Close)
		candidate, err := newReplica(primary, ReplicaOptions{Storage: memA})
		if err != nil {
			t.Fatalf("newReplica: %v", err)
		}
		t.Cleanup(candidate.Close)
		survivor, err = OpenReplica(primary, ReplicaOptions{})
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		t.Cleanup(survivor.Close)
		return primary, memP, memA, candidate, survivor
	}
	put := func(t *testing.T, db *Database, k, v int64) {
		t.Helper()
		if _, err := db.Execute("kv0", "put", k, v); err != nil {
			t.Fatalf("put kv0[%d]: %v", k, err)
		}
	}
	// promoteAndRestart fences the primary, promotes the candidate, commits
	// puts on it and restarts it over its storage.
	promoteAndRestart := func(t *testing.T, primary *Database, memA wal.Storage, candidate *Replica, puts ...int64) *Database {
		t.Helper()
		if err := primary.Fence(1); err != nil {
			t.Fatalf("Fence: %v", err)
		}
		promoted, err := PromoteReplica(candidate, 1)
		if err != nil {
			t.Fatalf("PromoteReplica: %v", err)
		}
		for _, k := range puts {
			put(t, promoted, k, 10*k)
		}
		promoted.Close()
		restarted := MustOpen(kvDef("kv0"), walCfg(memA))
		t.Cleanup(restarted.Close)
		if _, err := restarted.Recover(); err != nil {
			t.Fatalf("Recover the promoted node: %v", err)
		}
		return restarted
	}
	// serves checks that r serves exactly want from keys.
	serves := func(t *testing.T, name string, r *Replica, keys []int64, want map[int64]int64) {
		t.Helper()
		if err := r.WaitCaughtUp(replicaWait); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			v, present := readReplicaV(t, r, "kv0", k)
			if w, ok := want[k]; present != ok || v != w {
				t.Errorf("%s serves kv0[%d] = (%d, %v), want (%d, %v)", name, k, v, present, w, ok)
			}
		}
	}

	t.Run("cut", func(t *testing.T) {
		primary, memP, memA, candidate, survivor := setup(t)
		put(t, primary, 1, 10)
		candidate.pollOnce() // the candidate holds kv0[1] alone: cut [1]
		put(t, primary, 2, 20)
		put(t, primary, 3, 30)
		keys := []int64{1, 2, 3, 7, 8}
		serves(t, "the survivor before failover", survivor, keys, map[int64]int64{1: 10, 2: 20, 3: 30})

		restarted := promoteAndRestart(t, primary, memA, candidate, 7, 8)
		primary.Close()
		want := map[int64]int64{1: 10, 7: 70, 8: 80}
		for _, k := range keys {
			v, present := readV(t, restarted, "kv0", k)
			if w, ok := want[k]; present != ok || v != w {
				t.Fatalf("restarted primary holds kv0[%d] = (%d, %v), want (%d, %v)", k, v, present, w, ok)
			}
		}
		deposed, err := ReattachStorage(memP, restarted, ReplicaOptions{})
		if err != nil {
			t.Fatalf("ReattachStorage: %v", err)
		}
		t.Cleanup(deposed.Close)
		if err := Repoint(survivor, restarted); err != nil {
			t.Fatalf("Repoint: %v", err)
		}
		serves(t, "the re-attached deposed primary", deposed, keys, want)
		serves(t, "the re-pointed survivor", survivor, keys, want)
	})

	t.Run("zero-cut", func(t *testing.T) {
		primary, _, memA, candidate, survivor := setup(t)
		put(t, primary, 5, 50) // the candidate ships nothing: cut [0]
		keys := []int64{5, 6}
		serves(t, "the survivor before failover", survivor, keys, map[int64]int64{5: 50})
		restarted := promoteAndRestart(t, primary, memA, candidate, 6)
		if err := Repoint(survivor, restarted); err != nil {
			t.Fatalf("Repoint: %v", err)
		}
		serves(t, "the re-pointed survivor", survivor, keys, map[int64]int64{6: 60})
	})
}
