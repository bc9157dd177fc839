package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"reactdb/internal/rel"
	"reactdb/internal/wal"
)

// ckptCfg is a single-container WAL deployment with a tiny segment size so
// checkpoint truncation has many sealed segments to reclaim.
func ckptCfg(storage wal.Storage) Config {
	cfg := walCfg(storage)
	cfg.Durability.SegmentSize = 512
	return cfg
}

// TestCheckpointSuffixRecoveryAndTruncation is the acceptance test of the
// recovery fast path: after a checkpoint, recovery replays only the log
// suffix (asserted via the replayed-record count) and segments wholly below
// the low-water mark are deleted from storage.
func TestCheckpointSuffixRecoveryAndTruncation(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := ckptCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	const before, after = 40, 7
	for i := 0; i < before; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	segsBefore, err := storage.Sub("container-0").List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segsBefore) < 3 {
		t.Fatalf("workload produced only %d segments; segment size too large for the test", len(segsBefore))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	cs := db.CheckpointStats()
	if len(cs) != 1 || !cs[0].Enabled || cs[0].Checkpoints != 1 || cs[0].LastSeq != 1 {
		t.Fatalf("CheckpointStats after one checkpoint = %+v", cs)
	}
	if cs[0].SegmentsDeleted == 0 {
		t.Fatalf("checkpoint deleted no segments (stats %+v)", cs[0])
	}
	segsAfter, err := storage.Sub("container-0").List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncation left %d of %d segments on storage", len(segsAfter), len(segsBefore))
	}
	for i := 0; i < after; i++ {
		if _, err := db.Execute("kv0", "put", int64(1000+i), int64(i)); err != nil {
			t.Fatalf("post-checkpoint put %d: %v", i, err)
		}
	}
	db.Close()

	db2 := MustOpen(def, ckptCfg(storage))
	t.Cleanup(db2.Close)
	replayed, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed != after {
		t.Fatalf("Recover replayed %d transactions, want only the %d-record suffix", replayed, after)
	}
	cs = db2.CheckpointStats()
	if cs[0].RestoredRows != before || cs[0].ReplayFloor == 0 || cs[0].CorruptSkipped != 0 {
		t.Fatalf("recovery checkpoint stats = %+v, want %d restored rows and a non-zero floor", cs[0], before)
	}
	for i := 0; i < before; i++ {
		if v, present := readV(t, db2, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("checkpointed key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
	for i := 0; i < after; i++ {
		if v, present := readV(t, db2, "kv0", int64(1000+i)); !present || v != int64(i) {
			t.Fatalf("suffix key %d = (%d, %v), want %d", 1000+i, v, present, i)
		}
	}

	// The recovered incarnation must checkpoint again (sequence continues)
	// and survive another restart on the new checkpoint alone.
	if _, err := db2.Execute("kv0", "put", int64(0), int64(9999)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("post-recovery Checkpoint: %v", err)
	}
	if cs := db2.CheckpointStats(); cs[0].LastSeq != 2 {
		t.Fatalf("post-recovery checkpoint sequence = %d, want 2", cs[0].LastSeq)
	}
	db2.Close()

	db3 := MustOpen(def, ckptCfg(storage))
	t.Cleanup(db3.Close)
	if replayed, err := db3.Recover(); err != nil || replayed != 0 {
		t.Fatalf("third incarnation Recover = (%d, %v), want a pure checkpoint restore", replayed, err)
	}
	if v, present := readV(t, db3, "kv0", 0); !present || v != 9999 {
		t.Fatalf("key 0 after second checkpoint = (%d, %v), want 9999", v, present)
	}
}

// TestCheckpointCapturesLoaderData is the loader-gap regression test: loaders
// populate base rows outside the log, so plain replay cannot restore them —
// but a checkpoint taken after the bulk load captures them, and recovery from
// that checkpoint no longer needs the loader re-run. (The gap remains for
// logs without any checkpoint: base data written before the first checkpoint
// is only recoverable by re-running loaders first, as
// TestRecoverAfterLoaderBootstrap documents.)
func TestCheckpointCapturesLoaderData(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := ckptCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	db.MustLoad("kv0", "store", rel.Row{int64(1), int64(11)})
	db.MustLoad("kv0", "store", rel.Row{int64(2), int64(22)})
	if _, err := db.Execute("kv0", "put", int64(2), int64(222)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := db.Execute("kv0", "put", int64(3), int64(33)); err != nil {
		t.Fatalf("post-checkpoint put: %v", err)
	}
	db.Close()

	// No loader re-run: the checkpoint alone must restore the base rows.
	db2 := MustOpen(def, ckptCfg(storage))
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 1); !present || v != 11 {
		t.Fatalf("loader-populated key 1 = (%d, %v), want 11 without re-running the loader", v, present)
	}
	if v, present := readV(t, db2, "kv0", 2); !present || v != 222 {
		t.Fatalf("key 2 = (%d, %v), want logged 222 over loaded 22", v, present)
	}
	if v, present := readV(t, db2, "kv0", 3); !present || v != 33 {
		t.Fatalf("suffix key 3 = (%d, %v), want 33", v, present)
	}
}

// TestCheckpointTombstonesDeletedRows covers the deletion/loader corner: a
// loader-populated row is deleted, the checkpoint absorbs the delete (whose
// log record truncation may erase), and the next incarnation re-runs the
// loader before Recover — the documented bootstrap flow. The checkpoint's
// tombstone must keep the row dead; without it the re-loaded base row would
// resurrect.
func TestCheckpointTombstonesDeletedRows(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := ckptCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	db.MustLoad("kv0", "store", rel.Row{int64(1), int64(11)})
	db.MustLoad("kv0", "store", rel.Row{int64(2), int64(22)})
	if _, err := db.Execute("kv0", "del", int64(1)); err != nil {
		t.Fatalf("del: %v", err)
	}
	// Enough traffic to rotate the delete record into a sealed segment, so
	// the checkpoint's truncation genuinely erases it.
	for i := 10; i < 40; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cs := db.CheckpointStats(); cs[0].SegmentsDeleted == 0 {
		t.Fatalf("checkpoint truncated nothing; the delete record survived (stats %+v)", cs[0])
	}
	db.Close()

	db2 := MustOpen(def, ckptCfg(storage))
	t.Cleanup(db2.Close)
	// The documented loader flow: re-populate base data, then Recover.
	db2.MustLoad("kv0", "store", rel.Row{int64(1), int64(11)})
	db2.MustLoad("kv0", "store", rel.Row{int64(2), int64(22)})
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, present := readV(t, db2, "kv0", 1); present {
		t.Fatalf("deleted key 1 resurrected by the re-run loader with %d", v)
	}
	if v, present := readV(t, db2, "kv0", 2); !present || v != 22 {
		t.Fatalf("loaded key 2 = (%d, %v), want 22", v, present)
	}
}

// failCkptWriteStorage fails WriteCheckpoint inside one named sub-storage.
type failCkptWriteStorage struct {
	wal.Storage
	name     string
	failName string
	errVal   error
}

func (s *failCkptWriteStorage) Sub(name string) wal.Storage {
	return &failCkptWriteStorage{Storage: s.Storage.Sub(name), name: name, failName: s.failName, errVal: s.errVal}
}

func (s *failCkptWriteStorage) WriteCheckpoint(seq uint64, data []byte) error {
	if s.name == s.failName {
		return s.errVal
	}
	return s.Storage.WriteCheckpoint(seq, data)
}

// TestCheckpointRoundIsAtomicAcrossContainers pins the round barrier: 2PC
// decision records live only on the coordinator's log, so no container may
// truncate until every container's checkpoint of the round is durable. When
// container 1's checkpoint write fails, container 0 — already durably
// checkpointed — must not have truncated, and a restart recovering the two
// containers from different rounds must still find the decision record the
// participant's replayed prepare needs.
func TestCheckpointRoundIsAtomicAcrossContainers(t *testing.T) {
	mem := wal.NewMemStorage()
	storage := &failCkptWriteStorage{
		Storage:  wal.Storage(mem),
		failName: "container-1",
		errVal:   errors.New("injected checkpoint write failure"),
	}
	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage, SegmentSize: 192},
		Placement: func(reactor string) int {
			if reactor == "kv0" {
				return 0
			}
			return 1
		},
	}
	def := kvDef("kv0", "kv1")
	db := MustOpen(def, cfg)

	// Rotate the 2PC's records (prepare on kv1, decision on kv0's log) into
	// sealed segments so container 0's truncation — if it wrongly ran —
	// would delete the decision.
	if _, err := db.Execute("kv0", "copyTo", "kv1", int64(2), int64(20)); err != nil {
		t.Fatalf("copyTo: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Execute("kv0", "put", int64(100+i), int64(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, err := db.Execute("kv1", "put", int64(200+i), int64(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded despite the injected container-1 write failure")
	}
	for _, cs := range db.CheckpointStats() {
		if cs.SegmentsDeleted != 0 {
			t.Fatalf("container %d truncated %d segments in a round whose checkpoints never all landed",
				cs.Container, cs.SegmentsDeleted)
		}
	}
	db.Close()

	// Restart: container 0 recovers from its round-1 checkpoint, container 1
	// from full replay — mixed rounds. The decision record must still
	// resolve container 1's replayed prepare.
	db2 := MustOpen(def, Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: wal.Storage(mem)},
		Placement:             cfg.Placement,
	})
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	cs := db2.CheckpointStats()
	if cs[0].RestoredRows == 0 || cs[1].RestoredRows != 0 {
		t.Fatalf("expected mixed-round recovery (c0 from checkpoint, c1 full replay), got %+v", cs)
	}
	for _, r := range []string{"kv0", "kv1"} {
		if v, present := readV(t, db2, r, 2); !present || v != 20 {
			t.Fatalf("2PC write on %s = (%d, %v) after mixed-round recovery, want 20 (decision lost?)", r, v, present)
		}
	}
}

// TestCorruptCheckpointFallsBackToFullReplay flips a byte in the stored
// checkpoint blob: recovery must skip it (ErrCorrupt, no partial load) and
// fall back to full log replay. The segment size is left at the default so
// truncation reclaims nothing and the full log is still there to replay.
func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) {
	storage := wal.NewMemStorage()
	cfg := walCfg(storage)
	def := kvDef("kv0")

	db := MustOpen(def, cfg)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := db.Execute("kv0", "put", int64(i), int64(100+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db.Close()

	sub := storage.Sub("container-0")
	blob, err := sub.ReadCheckpoint(1)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := sub.WriteCheckpoint(1, blob); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	db2 := MustOpen(def, walCfg(storage))
	t.Cleanup(db2.Close)
	replayed, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed != n {
		t.Fatalf("fallback replayed %d transactions, want the full %d-record history", replayed, n)
	}
	cs := db2.CheckpointStats()
	if cs[0].CorruptSkipped != 1 || cs[0].RestoredRows != 0 || cs[0].ReplayFloor != 0 {
		t.Fatalf("fallback stats = %+v, want one skipped checkpoint and no restored rows", cs[0])
	}
	for i := 0; i < n; i++ {
		if v, present := readV(t, db2, "kv0", int64(i)); !present || v != int64(100+i) {
			t.Fatalf("key %d = (%d, %v), want %d", i, v, present, 100+i)
		}
	}
}

// TestCheckpointRequiresWALMode ensures on-demand Checkpoint is a no-op under
// the modeled ablation.
func TestCheckpointRequiresWALMode(t *testing.T) {
	db := MustOpen(kvDef("kv0"), Config{Containers: 1, ExecutorsPerContainer: 1})
	t.Cleanup(db.Close)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint under the modeled ablation = %v, want no-op", err)
	}
}

// --- Truncation-safety property test -----------------------------------------

// auditStorage wraps a wal.Storage tree and records every segment's decoded
// records at the moment the segment is deleted, so a test can verify after
// the fact that truncation never discarded a record recovery still needed.
type auditStorage struct {
	wal.Storage
	audit *deletionAudit
}

type deletionAudit struct {
	mu      sync.Mutex
	deleted []wal.Record // records of deleted segments, in deletion order
}

func (s *auditStorage) Sub(name string) wal.Storage {
	return &auditStorage{Storage: s.Storage.Sub(name), audit: s.audit}
}

func (s *auditStorage) DeleteSegment(index uint64) error {
	buf, err := s.Storage.ReadSegment(index)
	if err != nil {
		return err
	}
	recs, _ := wal.DecodeAll(buf)
	s.audit.mu.Lock()
	s.audit.deleted = append(s.audit.deleted, recs...)
	s.audit.mu.Unlock()
	return s.Storage.DeleteSegment(index)
}

// TestTruncationSafetyProperty drives a random-ish concurrent workload with
// in-flight two-phase commits while a checkpointer loops, then audits every
// record truncation discarded: no deleted prepare record may be undecided and
// unretracted (its transaction must have been resolved before its segment
// died), and no surviving prepare may have had its resolving decision
// deleted from under it (recovery would presume-abort a committed
// transaction). Finally a clean restart must recover exactly the last
// acknowledged value of every key.
func TestTruncationSafetyProperty(t *testing.T) {
	mem := wal.NewMemStorage()
	audit := &deletionAudit{}
	storage := &auditStorage{Storage: wal.Storage(mem), audit: audit}
	cfg := Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		GroupCommit:           GroupCommitConfig{Enabled: true, MaxBatch: 4, Window: 200 * time.Microsecond},
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: storage, SegmentSize: 512},
		Placement: func(reactor string) int {
			if reactor == "kv0" {
				return 0
			}
			return 1
		},
	}
	def := kvDef("kv0", "kv1")
	db := MustOpen(def, cfg)

	// Workers own disjoint keys, so every op must commit; copyTo keeps
	// cross-container 2PC in flight throughout the run.
	const workers, ops = 4, 60
	type final struct {
		reactor string
		k, v    int64
	}
	results := make([][]final, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, dst := "kv0", "kv1"
			if w%2 == 1 {
				src, dst = dst, src
			}
			for i := 0; i < ops; i++ {
				k := int64(w*1000 + i%7)
				v := int64(w*100000 + i)
				// Workers write disjoint keys, but concurrent inserts still
				// conflict on the table's structural phantom guard; retry
				// those — only acknowledged ops enter the expected state.
				for {
					var err error
					if i%3 == 0 {
						_, err = db.Execute(src, "put", k, v)
						if err == nil {
							results[w] = append(results[w], final{src, k, v})
						}
					} else {
						_, err = db.Execute(src, "copyTo", dst, k, v)
						if err == nil {
							results[w] = append(results[w], final{src, k, v}, final{dst, k, v})
						}
					}
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	ckptStop := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-ckptStop:
				return
			default:
				if err := db.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(ckptStop)
	<-ckptDone
	if t.Failed() {
		db.Close()
		return
	}
	// One final checkpoint on the quiesced database so truncation has
	// certainly seen resolved 2PC records to reclaim.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("final Checkpoint: %v", err)
	}
	var segsDeleted uint64
	for _, cs := range db.CheckpointStats() {
		segsDeleted += cs.SegmentsDeleted
	}
	if segsDeleted == 0 {
		t.Fatal("no segments were truncated; the property test exercised nothing")
	}
	db.Close()

	// Gather every record still on storage (both containers' logs), tagged
	// with its log's final replay floor: records at or below the floor are
	// covered by the newest checkpoint's snapshot and recovery never reads
	// them, so they may survive (or lose their decisions) without
	// consequence. Only records *above* the floor are live for recovery.
	type survRec struct {
		rec   wal.Record
		floor uint64 // the containing log's replay floor
	}
	var surviving []survRec
	for _, sub := range []string{"container-0", "container-1"} {
		s := mem.Sub(sub)
		cp, _, err := wal.LatestCheckpoint(s)
		if err != nil {
			t.Fatalf("LatestCheckpoint %s: %v", sub, err)
		}
		var low uint64
		if cp != nil {
			low = cp.LowLSN
		}
		idxs, err := s.List()
		if err != nil {
			t.Fatalf("List %s: %v", sub, err)
		}
		for _, idx := range idxs {
			buf, err := s.ReadSegment(idx)
			if err != nil {
				t.Fatalf("ReadSegment: %v", err)
			}
			recs, _ := wal.DecodeAll(buf)
			for _, rec := range recs {
				surviving = append(surviving, survRec{rec: rec, floor: low})
			}
		}
	}
	audit.mu.Lock()
	deleted := append([]wal.Record(nil), audit.deleted...)
	audit.mu.Unlock()

	decided := make(map[uint64]bool)   // global id -> decision existed anywhere, ever
	retracted := make(map[uint64]bool) // TID -> abort record existed anywhere, ever
	survivingDecision := make(map[uint64]bool)
	for _, sr := range surviving {
		switch sr.rec.Kind {
		case wal.KindDecision:
			decided[sr.rec.GlobalID] = true
			survivingDecision[sr.rec.GlobalID] = true
		case wal.KindAbort:
			retracted[sr.rec.TID] = true
		}
	}
	for _, rec := range deleted {
		switch rec.Kind {
		case wal.KindDecision:
			decided[rec.GlobalID] = true
		case wal.KindAbort:
			retracted[rec.TID] = true
		}
	}
	// P1: truncation never deleted an unresolved prepare — every deleted
	// prepare's transaction was decided or retracted before its segment died.
	for _, rec := range deleted {
		if rec.Kind == wal.KindPrepare && !decided[rec.GlobalID] && !retracted[rec.TID] {
			t.Fatalf("truncation deleted undecided, unretracted prepare (gid %d, tid %d)", rec.GlobalID, rec.TID)
		}
	}
	// P2: no prepare that recovery will actually replay (above its log's
	// floor) lost its resolving decision to truncation — that would make
	// recovery presume-abort a committed transaction.
	for _, sr := range surviving {
		if sr.rec.Kind == wal.KindPrepare && sr.rec.LSN > sr.floor &&
			decided[sr.rec.GlobalID] && !survivingDecision[sr.rec.GlobalID] && !retracted[sr.rec.TID] {
			t.Fatalf("live prepare (gid %d, lsn %d > floor %d) lost its decision record to truncation",
				sr.rec.GlobalID, sr.rec.LSN, sr.floor)
		}
	}

	// A clean restart must land on exactly the last acknowledged values.
	db2 := MustOpen(def, Config{
		Containers:            2,
		ExecutorsPerContainer: 1,
		Durability:            DurabilityConfig{Mode: DurabilityWAL, Storage: wal.Storage(mem)},
		Placement:             cfg.Placement,
	})
	t.Cleanup(db2.Close)
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for w := 0; w < workers; w++ {
		last := make(map[string]final)
		for _, f := range results[w] {
			last[fmt.Sprintf("%s/%d", f.reactor, f.k)] = f
		}
		for _, f := range last {
			if v, present := readV(t, db2, f.reactor, f.k); !present || v != f.v {
				t.Fatalf("%s[%d] = (%d, %v) after recovery, want last acknowledged %d",
					f.reactor, f.k, v, present, f.v)
			}
		}
	}
}
