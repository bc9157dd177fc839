package server

import (
	"errors"
	"testing"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/wal"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

// TestConnRedialReconnect is the reconnect regression: a Conn with a redial
// policy survives its server restarting on the same address — requests issued
// while disconnected block until the background redial lands, then complete.
// A plain-Dial Conn on the same lifecycle stays dead, the documented
// zero-policy behavior.
func TestConnRedialReconnect(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()

	s1 := NewPrimary(db, Options{})
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	c, err := dialRedial(addr.String(), RedialPolicy{
		Attempts: 100, Backoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	plain := dial(t, addr.String())

	if _, err := c.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put before restart: %v", err)
	}

	// Kill the server: both connections' sockets die. Restart on the same
	// address while the redial loop is already probing for it.
	s1.Close()
	s2 := NewPrimary(db, Options{})
	if _, err := s2.Start(addr.String()); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	// The redialing Conn recovers. A request racing the crash itself can
	// still fail (its frame died with the old socket, and the outcome of a
	// written frame is unknowable, so the Conn won't silently re-send it) —
	// but requests keep being accepted and soon run against the restarted
	// server instead of failing forever.
	waitCond(t, 10*time.Second, func() bool {
		v, err := c.Execute("kv0", "get", int64(1))
		got, ok := v.(int64)
		return err == nil && ok && got == 10
	})
	if c.Redials() == 0 {
		t.Fatalf("conn reports zero redials after a server restart")
	}

	// The plain Conn observed the same crash and is permanently dead.
	waitCond(t, 5*time.Second, func() bool {
		_, err := plain.Execute("kv0", "get", int64(1))
		return errors.Is(err, ErrConnClosed)
	})
	if _, err := plain.Execute("kv0", "get", int64(1)); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("plain conn error = %v, want ErrConnClosed", err)
	}
}

// TestRouterFailoverRedirect drives a planned failover under live wire
// traffic with no call on any server: the old primary's server answers
// NotPrimary once its engine is fenced, the promoted replica's server
// answers as the primary, and the router rediscovers the promoted endpoint by
// epoch — the same Execute call that hit the deposed node lands on its
// successor. The node status carries the epoch that arbitrates the two nodes
// both claiming the primary role.
func TestRouterFailoverRedirect(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()

	repA, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: engine.AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("open repA: %v", err)
	}
	repB, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: engine.AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("open repB: %v", err)
	}

	_, pAddr := startPrimary(t, db, Options{})
	_, aAddr := startReplica(t, repA, Options{})
	_, bAddr := startReplica(t, repB, Options{})
	sup := engine.NewSupervisor(db, []*engine.Replica{repA, repB}, engine.SupervisorOptions{})

	r, err := NewRouter([]string{pAddr, aAddr, bAddr}, RouterOptions{
		MaxRetries:   8,
		RetryBackoff: time.Millisecond,
		Redial:       RedialPolicy{Attempts: 50, Backoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()

	if _, err := r.Execute("kv0", "put", int64(7), int64(70)); err != nil {
		t.Fatalf("put before failover: %v", err)
	}
	if err := repA.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("repA catch-up: %v", err)
	}
	if err := repB.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("repB catch-up: %v", err)
	}

	// Planned switchover: fence the live primary, promote the freshest
	// replica, re-point the survivor. Every listener stays up.
	promotedDB, err := sup.Failover()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if !db.Fenced() {
		t.Fatalf("old primary not fenced after failover")
	}

	// A direct write to the deposed node is refused with NotPrimary: its
	// listener still fronts the fenced engine.
	deposed := dial(t, pAddr)
	if _, err := deposed.Execute("kv0", "put", int64(8), int64(80)); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("write via the deposed primary's listener = %v, want ErrNotPrimary", err)
	}
	// The promoted replica's listener takes writes as the primary.
	promotedAddr := aAddr
	if promotedDB != repA.Database() {
		promotedAddr = bAddr
	}
	if _, err := dial(t, promotedAddr).Execute("kv0", "put", int64(8), int64(80)); err != nil {
		t.Fatalf("write via the promoted replica's listener: %v", err)
	}

	// The router's next write rediscovers by epoch and succeeds regardless of
	// which endpoint it was pointing at.
	if _, err := r.Execute("kv0", "put", int64(9), int64(90)); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
	h, err := r.Primary().Stats()
	if err != nil {
		t.Fatalf("stats on new primary: %v", err)
	}
	if h.Role != RolePrimary || h.Epoch != 1 {
		t.Fatalf("new primary status = role %v epoch %d, want primary epoch 1", h.Role, h.Epoch)
	}
	if promotedDB.Epoch() != 1 {
		t.Fatalf("promoted db epoch %d, want 1", promotedDB.Epoch())
	}

	// Reads of pre- and post-failover writes both resolve through the router.
	for k, want := range map[int64]int64{7: 70, 8: 80, 9: 90} {
		waitCond(t, 10*time.Second, func() bool {
			v, err := r.ExecuteRead("kv0", "get", k)
			got, ok := v.(int64)
			return err == nil && ok && got == want
		})
	}
}

// TestServerFencedAnswersNotPrimary pins the wire status itself: a primary
// server whose engine database is fenced (deposed; its listener fronts it
// for life) refuses execute and query with NotPrimary, and the client
// reconstructs ErrNotPrimary via errors.Is.
func TestServerFencedAnswersNotPrimary(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{})
	c := dial(t, addr)

	if _, err := c.Execute("kv0", "put", int64(1), int64(1)); err != nil {
		t.Fatalf("put before fence: %v", err)
	}
	if err := db.Fence(1); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if _, err := c.Execute("kv0", "put", int64(2), int64(2)); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("execute on fenced primary = %v, want ErrNotPrimary", err)
	}
	h, err := c.Stats()
	if err != nil {
		t.Fatalf("stats on fenced primary: %v", err)
	}
	if h.Role != RolePrimary {
		t.Fatalf("fenced primary still reports role %v in its status", h.Role)
	}
}

// TestReplicaHintsCarryErr: when a replica degrades (its mirror device
// fails), its node status surfaces both the degraded flag and the engine's
// lastErr explanation — satellite of the failover work: operators see WHY a
// node stopped serving bounded reads without a side channel.
func TestReplicaHintsCarryErr(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()

	mirror := wal.NewMemStorage()
	rep, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: engine.AckSemiSync, Storage: mirror})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	defer rep.Close()
	_, addr := startReplica(t, rep, Options{})
	c := dial(t, addr)

	h, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if h.Degraded || h.Err != "" {
		t.Fatalf("healthy replica status = degraded %v err %q", h.Degraded, h.Err)
	}

	mirror.FailWrites(errors.New("mirror disk on fire"))
	if _, err := db.Execute("kv0", "put", int64(1), int64(1)); err != nil {
		t.Fatalf("primary put: %v", err)
	}
	waitCond(t, 10*time.Second, func() bool {
		h, err := c.Stats()
		return err == nil && h.Degraded && h.Err != ""
	})
	h, err = c.Stats()
	if err != nil {
		t.Fatalf("stats after degrade: %v", err)
	}
	if h.Err == "" || !h.Degraded {
		t.Fatalf("degraded replica status = %+v, want Degraded with Err", h)
	}
}

// TestRouterRediscoversPastSilentDeposedPrimary: rediscovery classifies each
// endpoint from its answer to the sweep, and an endpoint that does not answer
// by the role of its last hello. The router spans a primary and two replicas.
// A failover promotes one replica and re-points the other, and the deposed
// primary's listener is shut down, so it is silent when the next write fails
// on it and triggers the sweep. The write
// must land on the promoted node, and the silent endpoint, whose last hello
// said primary, must stay out of the read set.
func TestRouterRediscoversPastSilentDeposedPrimary(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	repA, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: engine.AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("open repA: %v", err)
	}
	repB, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: engine.AckSemiSync, Storage: wal.NewMemStorage()})
	if err != nil {
		t.Fatalf("open repB: %v", err)
	}
	sp, pAddr := startPrimary(t, db, Options{})
	_, aAddr := startReplica(t, repA, Options{})
	_, bAddr := startReplica(t, repB, Options{})
	sup := engine.NewSupervisor(db, []*engine.Replica{repA, repB}, engine.SupervisorOptions{})

	r, err := NewRouter([]string{pAddr, aAddr, bAddr}, RouterOptions{MaxRetries: 8, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()
	if _, err := r.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put before failover: %v", err)
	}
	if err := repA.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("repA catch-up: %v", err)
	}
	if err := repB.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("repB catch-up: %v", err)
	}
	promoted, err := sup.Failover()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	sp.Close() // the deposed primary goes silent

	if _, err := r.Execute("kv0", "put", int64(2), int64(20)); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
	if v, err := promoted.Execute("kv0", "get", int64(2)); err != nil || v != int64(20) {
		t.Fatalf("promoted node holds (%v, %v) for the write, want 20", v, err)
	}
	replicas := r.Replicas()
	if len(replicas) != 1 || replicas[0] == r.Primary() || replicas[0].Addr() == pAddr {
		addrs := make([]string, len(replicas))
		for i, c := range replicas {
			addrs[i] = c.Addr()
		}
		t.Fatalf("replicas after rediscovery = %v (primary %s, silent %s)", addrs, r.Primary().Addr(), pAddr)
	}
}

// TestReplicaServerFollowsReopenedReplica: a NewReplica server fronts its
// replica handle for life. The handle is re-pointed at a primary recovered
// cold from an older mirror, so it holds a write the new timeline lacks and
// Repoint reopens its database: with no call on the server, it serves the
// new database — the write gone — and then what the new primary commits.
func TestReplicaServerFollowsReopenedReplica(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	older := wal.NewMemStorage()
	early, err := engine.OpenReplica(db, engine.ReplicaOptions{Storage: older})
	if err != nil {
		t.Fatalf("open early replica: %v", err)
	}
	rep, err := engine.OpenReplica(db, engine.ReplicaOptions{})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	defer rep.Close()
	_, addr := startReplica(t, rep, Options{})
	c := dial(t, addr)

	if _, err := db.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := early.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	early.Close()
	if _, err := db.Execute("kv0", "put", int64(5), int64(50)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Execute("kv0", "get", int64(5)); err != nil || v != int64(50) {
		t.Fatalf("get(5) via the replica's listener = (%v, %v), want 50", v, err)
	}

	cfg := walCfg()
	cfg.Durability.Storage = older
	next := engine.MustOpen(kvDef(nil, "kv0"), cfg)
	defer next.Close()
	if _, err := next.Recover(); err != nil {
		t.Fatalf("recover the older mirror: %v", err)
	}
	before := rep.Database()
	if err := engine.Repoint(rep, next); err != nil {
		t.Fatalf("repoint: %v", err)
	}
	if rep.Database() == before {
		t.Fatalf("the re-point kept the database that applied get(5)")
	}
	if v, err := c.Execute("kv0", "get", int64(5)); err != nil || v != nil {
		t.Fatalf("get(5) via the replica's listener after the re-point = (%v, %v), want nil", v, err)
	}
	if _, err := next.Execute("kv0", "put", int64(6), int64(60)); err != nil {
		t.Fatalf("put on the new primary: %v", err)
	}
	waitCond(t, 10*time.Second, func() bool {
		v, err := c.Execute("kv0", "get", int64(6))
		return err == nil && v == int64(60)
	})
	if h, err := c.Stats(); err != nil || h.Role != RoleReplica {
		t.Fatalf("status after the re-point = (%+v, %v), want the replica role", h, err)
	}
}
