package engine

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"reactdb/internal/wal"
)

// committedRows is every committed row and deletion tombstone of every
// reactor, keyed by container and fully qualified key, as a checkpoint would
// capture them.
func committedRows(db *Database) map[string]wal.CheckpointRow {
	out := make(map[string]wal.CheckpointRow)
	for _, c := range db.containers {
		for _, row := range c.snapshotRows() {
			out[fmt.Sprintf("%d/%q", c.id, row.Key)] = row
		}
	}
	return out
}

// TestPromoteInPlaceEqualsColdRecovery: an in-place promotion leaves exactly
// the state a cold Open + Recover over the mirror recovers. The replica is
// caught holding a transfer's decision — the other participant's prepare is
// not durable yet — with a later commit staged behind it, neither of them in
// the mirror. Only a resolver fed no more than the mirror holds finishes into
// the cold state: one that had been fed the staged commit would install it.
func TestPromoteInPlaceEqualsColdRecovery(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	// Container 1's syncs: the put below, the first transfer's prepare, then
	// the held transfer's prepare.
	primary := MustOpen(kvDef("kv0", "kv1"), twoContainerCfg(newGateSyncStorage("container-1", 3, gate)))
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

	mirror := wal.NewMemStorage()
	rep, err := newReplica(primary, ReplicaOptions{Storage: mirror})
	if err != nil {
		t.Fatalf("newReplica: %v", err)
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
	// An update: an insert would wait for the held transfer's structural latch.
	if _, err := primary.Execute("kv0", "put", int64(12), int64(20)); err != nil {
		t.Fatalf("put behind the held transfer: %v", err)
	}
	rep.pollOnce()
	rep.mu.Lock()
	staged := len(rep.shards[0].staged)
	rep.mu.Unlock()
	if staged < 2 {
		t.Fatalf("%d frames staged on the coordinator's shard, want the held decision and the commit behind it", staged)
	}

	promoted, err := PromoteReplica(rep, 1)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}
	t.Cleanup(promoted.Close)
	cold := MustOpen(kvDef("kv0", "kv1"), twoContainerCfg(mirror.CrashCopy()))
	t.Cleanup(cold.Close)
	if _, err := cold.Recover(); err != nil {
		t.Fatalf("cold Recover: %v", err)
	}
	got, want := committedRows(promoted), committedRows(cold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-place promotion holds\n%v\ncold recovery of the mirror holds\n%v", got, want)
	}
	if v, _ := readV(t, promoted, "kv0", 12); v != 2 {
		t.Fatalf("kv0[12] = %d: the commit staged behind the held decision was installed", v)
	}
	if v, present := readV(t, promoted, "kv1", 11); !present || v != 7 {
		t.Fatalf("kv1[11] = (%d, %v), want the mirrored transfer's 7", v, present)
	}
	release()
	<-held
	if _, err := promoted.Execute("kv0", "copyTo", "kv1", int64(3), int64(30)); err != nil {
		t.Fatalf("copyTo on the promoted primary: %v", err)
	}
}

// readCountStorage counts ReadSegment calls per sub-storage while counting
// is on.
type readCountStorage struct {
	wal.Storage
	name   string
	on     *atomic.Bool
	counts *sync.Map // sub name -> *atomic.Int64
}

func (s *readCountStorage) Sub(name string) wal.Storage {
	return &readCountStorage{Storage: s.Storage.Sub(name), name: name, on: s.on, counts: s.counts}
}

func (s *readCountStorage) ReadSegment(index uint64) ([]byte, error) {
	if s.on.Load() {
		n, _ := s.counts.LoadOrStore(s.name, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
	}
	return s.Storage.ReadSegment(index)
}

// TestPromoteDoesNoReplay: promotion reads at most one segment per shard —
// the promotion cut's tail scan — however long the mirror is. Reopening the
// mirror and recovering would read every segment.
func TestPromoteDoesNoReplay(t *testing.T) {
	cfg := twoContainerCfg(wal.NewMemStorage())
	cfg.Durability.SegmentSize = 512
	primary := MustOpen(kvDef("kv0", "kv1"), cfg)
	t.Cleanup(primary.Close)
	mirror := &readCountStorage{Storage: wal.NewMemStorage(), on: new(atomic.Bool), counts: new(sync.Map)}
	rep, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, Storage: mirror})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	const n = 300
	for i := int64(0); i < n; i++ {
		if _, err := primary.Execute("kv0", "copyTo", "kv1", i, i); err != nil {
			t.Fatalf("copyTo %d: %v", i, err)
		}
	}
	if err := rep.WaitCaughtUp(replicaWait); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if segs, err := mirror.Sub(fmt.Sprintf("container-%d", i)).List(); err != nil || len(segs) < 10 {
			t.Fatalf("mirror container %d holds %d segments (%v), want a long mirror", i, len(segs), err)
		}
	}
	if err := primary.Fence(1); err != nil {
		t.Fatalf("Fence: %v", err)
	}

	mirror.on.Store(true)
	promoted, err := PromoteReplica(rep, 1)
	mirror.on.Store(false)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}
	t.Cleanup(promoted.Close)
	mirror.counts.Range(func(sub, n any) bool {
		if reads := n.(*atomic.Int64).Load(); reads > 1 {
			t.Errorf("promotion read %d segments of %s, want at most the tail", reads, sub)
		}
		return true
	})
	for _, r := range []string{"kv0", "kv1"} {
		if v, present := readV(t, promoted, r, n-1); !present || v != n-1 {
			t.Fatalf("promoted %s[%d] = (%d, %v), want %d", r, n-1, v, present, n-1)
		}
	}
}
