package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reactdb/internal/wal"
)

// TestFencedPrimaryDoesNotAckUnshippedCommit pins the interleaving behind the
// lost acknowledged commit of supervised failover: a commit is durable on the
// primary and sits in the pipeline's ship-wait stage for a semi-sync replica
// that has not received it, the supervisor fences the primary and then closes
// the replica to promote it. The detach releases the waiter; the commit must
// come back as an error (outcome unknown), never as an acknowledgment — the
// promoted mirror does not hold it. Nothing here depends on timing: the
// replica's tailing loop never starts (newReplica), so it ships only when the
// test polls it, and every wait below is on a state the primary cannot leave
// without the test's next step, except the read arm's one bounded check that
// a read has not returned yet.
//
// The read arm holds a read-only commit to the same rule: a read of a write
// that is installed and durable but not yet mirrored waits for the mirror
// like the write does, and comes back ErrFenced when the fence and the detach
// release it instead. In every arm a read on the fenced primary fails with
// ErrFenced.
func TestFencedPrimaryDoesNotAckUnshippedCommit(t *testing.T) {
	grouped := GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond}
	for _, arm := range []struct {
		name     string
		gc       GroupCommitConfig
		transfer bool
		read     bool
	}{
		{name: "eager"},
		{name: "grouped", gc: grouped},
		{name: "transfer", transfer: true},
		{name: "read", gc: grouped, read: true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := twoContainerCfg(wal.NewMemStorage())
			cfg.GroupCommit = arm.gc
			primary := MustOpen(kvDef("kv0", "kv1"), cfg)
			t.Cleanup(primary.Close)
			rep, err := newReplica(primary, ReplicaOptions{Ack: AckSemiSync})
			if err != nil {
				t.Fatalf("newReplica: %v", err)
			}
			t.Cleanup(rep.Close)
			durable := func(container int, lsn uint64) {
				t.Helper()
				waitFor(t, replicaWait, func() bool { return primary.containers[container].wal.DurableLSN() >= lsn })
			}

			outcome, wrote := make(chan error, 1), make(chan error, 1)
			exec := func(out chan<- error, proc string, args ...any) {
				go func() {
					_, err := primary.Execute("kv0", proc, args...)
					out <- err
				}()
			}
			if arm.read {
				// The first write and a read of it: both wait for the mirror,
				// and one poll releases both.
				read := make(chan error, 1)
				exec(wrote, "put", int64(1), int64(10))
				durable(0, 1)
				exec(read, "get", int64(1))
				select {
				case err := <-read:
					t.Fatalf("read of an unshipped write returned (%v) before the replica mirrored it", err)
				case <-time.After(20 * time.Millisecond):
				}
				rep.pollOnce()
				if err := <-read; err != nil {
					t.Fatalf("read after the mirror caught up: %v", err)
				}
				if err := <-wrote; err != nil {
					t.Fatalf("write after the mirror caught up: %v", err)
				}
				// The second write and a read of it are held until the fence
				// and the detach below release them.
				exec(wrote, "put", int64(2), int64(20))
				durable(0, 2)
				exec(outcome, "get", int64(2))
			} else if arm.transfer {
				exec(outcome, "copyTo", "kv1", int64(1), int64(10))
				// The round forces the coordinator's prepare and decision and
				// the other prepare, then waits for the mirror: once all three
				// are durable, stop with none of them shipped.
				durable(0, 2)
				durable(1, 1)
			} else {
				exec(outcome, "put", int64(1), int64(10))
				durable(0, 1)
			}

			if err := primary.Fence(primary.Epoch() + 1); err != nil {
				t.Fatalf("Fence: %v", err)
			}
			rep.Close()
			if err := <-outcome; !errors.Is(err, ErrFenced) {
				t.Fatalf("commit released by a promotion-driven detach returned %v, want ErrFenced (outcome unknown)", err)
			}
			if arm.read {
				if err := <-wrote; !errors.Is(err, ErrFenced) {
					t.Fatalf("write released by the detach returned %v, want ErrFenced", err)
				}
			}
			if _, err := primary.Execute("kv0", "get", int64(1)); !errors.Is(err, ErrFenced) {
				t.Fatalf("read on the fenced primary returned %v, want ErrFenced", err)
			}
		})
	}
}

// ioTrace records, in one total order, every segment write (with the kinds of
// the records in it) and every physical fsync a database issues.
type ioTrace struct {
	mu  sync.Mutex
	ops []string
}

func (tr *ioTrace) add(op string) {
	tr.mu.Lock()
	tr.ops = append(tr.ops, op)
	tr.mu.Unlock()
}

// take returns the ops recorded since the last take.
func (tr *ioTrace) take() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ops := tr.ops
	tr.ops = nil
	return ops
}

type traceStorage struct {
	wal.Storage
	name  string
	trace *ioTrace
}

func (s *traceStorage) Sub(name string) wal.Storage {
	return &traceStorage{Storage: s.Storage.Sub(name), name: name, trace: s.trace}
}

func (s *traceStorage) Create(index uint64) (wal.SegmentFile, error) {
	f, err := s.Storage.Create(index)
	if err != nil {
		return nil, err
	}
	return &traceSegmentFile{SegmentFile: f, name: s.name, trace: s.trace}, nil
}

type traceSegmentFile struct {
	wal.SegmentFile
	name  string
	trace *ioTrace
}

func (f *traceSegmentFile) Write(p []byte) (int, error) {
	recs, _ := wal.DecodeAll(p)
	kinds := make([]string, len(recs))
	for i, r := range recs {
		kinds[i] = [...]string{"commit", "abort", "prepare", "decision"}[r.Kind]
	}
	f.trace.add(fmt.Sprintf("%s write %s", f.name, strings.Join(kinds, "+")))
	return f.SegmentFile.Write(p)
}

func (f *traceSegmentFile) Sync() error {
	f.trace.add(f.name + " sync")
	return f.SegmentFile.Sync()
}

// TestCommitPipelineEagerIsBatchOfOne states what "eager commit is a batch of
// one" promises at the storage boundary: with group commit disabled a
// single-container write commit is exactly one segment write and one fsync, a
// read-only commit writes nothing and its force is absorbed by the
// already-durable log, and a two-container transfer is one forced write per
// container, the coordinator's carrying its prepare and the decision
// together. A queue whose batches hold one entry (MaxBatch 1) issues the
// same IO per commit.
func TestCommitPipelineEagerIsBatchOfOne(t *testing.T) {
	def := kvDef("kv0", "kv1")

	// run executes the three commits and returns each one's IO, split per
	// container: the two containers of a 2PC round force their shares
	// concurrently, so only per-container order is comparable.
	run := func(t *testing.T, gc GroupCommitConfig) map[string][]string {
		trace := &ioTrace{}
		cfg := twoContainerCfg(&traceStorage{Storage: wal.NewMemStorage(), trace: trace})
		cfg.GroupCommit = gc
		db := MustOpen(def, cfg)
		defer db.Close()
		out := make(map[string][]string)
		for _, op := range []struct {
			name, proc string
			args       []any
		}{
			{"write", "put", []any{int64(1), int64(10)}},
			{"read", "get", []any{int64(1)}},
			{"transfer", "copyTo", []any{"kv1", int64(2), int64(20)}},
		} {
			absorbed := db.WALStats()[0].SyncsAbsorbed
			if _, err := db.Execute("kv0", op.proc, op.args...); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			ops := trace.take()
			for _, o := range ops {
				container, io, _ := strings.Cut(o, " ")
				out[op.name+"/"+container] = append(out[op.name+"/"+container], io)
			}
			if op.name == "read" {
				if got := db.WALStats()[0].SyncsAbsorbed - absorbed; got != 1 {
					t.Fatalf("read-only commit: %d absorbed syncs, want 1", got)
				}
			}
		}
		return out
	}

	want := map[string][]string{
		"write/container-0":    {"write commit", "sync"},
		"transfer/container-0": {"write prepare+decision", "sync"},
		"transfer/container-1": {"write prepare", "sync"},
	}
	if got := run(t, GroupCommitConfig{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("eager IO trace:\n got %v\nwant %v", got, want)
	}
	if got := run(t, GroupCommitConfig{Enabled: true, MaxBatch: 1, Window: time.Second}); !reflect.DeepEqual(got, want) {
		t.Fatalf("group commit with MaxBatch 1 IO trace:\n got %v\nwant %v", got, want)
	}
}

// TestFenceDoesNotWaitForHeldFsync holds a commit's fsync inside the
// primary's storage — a disk that hangs — and fences the primary: Fence
// returns at once, since it takes no log's lock; Supervisor.Failover promotes
// the semi-sync replica while the fsync is still held; and the held commit,
// once its fsync completes, fails with ErrFenced instead of being
// acknowledged, and is not on the promoted primary.
func TestFenceDoesNotWaitForHeldFsync(t *testing.T) {
	mem := wal.NewMemStorage()
	primary := MustOpen(kvDef("kv0"), walCfg(mem))
	t.Cleanup(primary.Close)
	rep, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync})
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	t.Cleanup(rep.Close)
	if _, err := primary.Execute("kv0", "put", int64(1), int64(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) }) // before the Closes
	started := mem.SyncsStarted()
	mem.GateSyncs(gate)
	held := make(chan error, 1)
	go func() {
		_, err := primary.Execute("kv0", "put", int64(2), int64(20))
		held <- err
	}()
	waitFor(t, replicaWait, func() bool { return mem.SyncsStarted() > started })

	// promptly runs f and fails the test if it does not return in time.
	promptly := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited out the held fsync", what)
		}
	}
	promptly("Fence", func() {
		if err := primary.Fence(1); err != nil {
			t.Errorf("Fence: %v", err)
		}
	})
	var promoted *Database
	promptly("Failover", func() {
		sup := NewSupervisor(primary, []*Replica{rep}, supTestOpts())
		if promoted, err = sup.Failover(); err != nil {
			t.Errorf("Failover: %v", err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	select {
	case err := <-held:
		t.Fatalf("the held commit returned (%v) before its fsync completed", err)
	default:
	}
	if promoted != rep.Database() || promoted.Epoch() != 1 || !primary.Fenced() {
		t.Fatalf("failover did not promote the replica at epoch 1 over a fenced primary")
	}
	release.Do(func() { close(gate) })
	if err := <-held; !errors.Is(err, ErrFenced) {
		t.Fatalf("the held commit returned %v, want ErrFenced (not acknowledged)", err)
	}
	if _, present := readV(t, promoted, "kv0", 2); present {
		t.Fatalf("the promoted primary holds the unacknowledged kv0[2]")
	}
	if v, present := readV(t, promoted, "kv0", 1); !present || v != 10 {
		t.Fatalf("promoted kv0[1] = (%d, %v), want 10", v, present)
	}
}
