package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/wal"
)

// TestFencedPrimaryDoesNotAckUnshippedCommit pins the interleaving behind the
// lost acknowledged commit of supervised failover: a commit is durable on the
// primary and sits in the pipeline's ship-wait stage for a semi-sync replica
// that has not received it, the supervisor fences the primary and then closes
// the replica to promote it. The detach releases the waiter; the commit must
// come back as an error (outcome unknown), never as an acknowledgment — the
// promoted mirror does not hold it. Nothing here depends on timing: the
// replica's tailing never runs on its own (hour-long poll interval), and
// every wait below is on a state the primary cannot leave without the test's
// next step.
func TestFencedPrimaryDoesNotAckUnshippedCommit(t *testing.T) {
	grouped := GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond}
	for _, arm := range []struct {
		name     string
		gc       GroupCommitConfig
		transfer bool
	}{
		{name: "eager"},
		{name: "grouped", gc: grouped},
		{name: "transfer", transfer: true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := twoContainerCfg(wal.NewMemStorage())
			cfg.GroupCommit = arm.gc
			primary := MustOpen(kvDef("kv0", "kv1"), cfg)
			t.Cleanup(primary.Close)
			rep, err := OpenReplica(primary, ReplicaOptions{Ack: AckSemiSync, PollInterval: time.Hour})
			if err != nil {
				t.Fatalf("OpenReplica: %v", err)
			}
			t.Cleanup(rep.Close)
			durable := func(container int, lsn uint64) {
				t.Helper()
				waitFor(t, replicaWait, func() bool { return primary.containers[container].wal.DurableLSN() >= lsn })
			}

			outcome := make(chan error, 1)
			if arm.transfer {
				go func() {
					_, err := primary.Execute("kv0", "copyTo", "kv1", int64(1), int64(10))
					outcome <- err
				}()
				// Eager 2PC forces one record at a time, each held in ship-wait
				// until the replica mirrors it: ship the two prepares so the
				// commit reaches its decision record, and stop there.
				durable(0, 1)
				rep.pollOnce()
				durable(1, 1)
				rep.pollOnce()
				durable(0, 2)
			} else {
				go func() {
					_, err := primary.Execute("kv0", "put", int64(1), int64(10))
					outcome <- err
				}()
				durable(0, 1)
			}

			if err := primary.Fence(primary.Epoch() + 1); err != nil {
				t.Fatalf("Fence: %v", err)
			}
			rep.Close()
			if err := <-outcome; !errors.Is(err, ErrFenced) {
				t.Fatalf("commit released by a promotion-driven detach returned %v, want ErrFenced (outcome unknown)", err)
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
// already-durable log, and a two-container transfer is two prepare writes and
// one decision write, each forced, with the decision written only after both
// prepares are durable. A group committer flushing batches of one issues the
// same IO per commit.
func TestCommitPipelineEagerIsBatchOfOne(t *testing.T) {
	typ := kvType()
	typ.AddProcedure("get", func(ctx core.Context, args core.Args) (any, error) {
		return ctx.Get("store", args.Int64(0))
	})
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("KV", "kv0", "kv1")

	// run executes the three commits and returns each one's IO, split per
	// container: the two committers of a grouped 2PC force their prepares
	// concurrently, so only per-container order is comparable across modes.
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
			switch op.name {
			case "read":
				if got := db.WALStats()[0].SyncsAbsorbed - absorbed; got != 1 {
					t.Fatalf("read-only commit: %d absorbed syncs, want 1", got)
				}
			case "transfer":
				// Prepare-before-decision: the decision is written only after
				// both prepare fsyncs.
				synced := 0
				for _, o := range ops {
					if strings.HasSuffix(o, " sync") {
						synced++
					}
					if o == "container-0 write decision" && synced < 2 {
						t.Fatalf("decision written before both prepares were forced: %v", ops)
					}
				}
			}
		}
		return out
	}

	want := map[string][]string{
		"write/container-0":    {"write commit", "sync"},
		"transfer/container-0": {"write prepare", "sync", "write decision", "sync"},
		"transfer/container-1": {"write prepare", "sync"},
	}
	if got := run(t, GroupCommitConfig{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("eager IO trace:\n got %v\nwant %v", got, want)
	}
	if got := run(t, GroupCommitConfig{Enabled: true, MaxBatch: 1, Window: time.Second}); !reflect.DeepEqual(got, want) {
		t.Fatalf("group commit with MaxBatch 1 IO trace:\n got %v\nwant %v", got, want)
	}
}
