package wal

import (
	"errors"
	"flag"
	"math/rand"
	"reflect"
	"testing"

	"reactdb/internal/raceflag"
)

// The ship layer on its own: a ShipCursor over one Log's storage feeding a
// second Log through AppendShipped. internal/engine judges the same code by
// promoting mirrors; these tests judge it by the bytes.

var shipSeed = flag.Int64("shipseed", -1, "run only this seed of TestShipMirrorReplaysLikePrimary")

const shipSeeds = 256

// TestShipMirrorReplaysLikePrimary is the property the replica rests on:
// whatever the primary's history — random batch sizes over tiny segments (so
// both logs rotate, at different points), abort records, batches salvaged by
// retraction after a failed write, a torn tail — and however it is shipped —
// random steps gated at or below the durable LSN, a mirror closed or crashed
// and reopened in the middle — Replay of the mirror yields exactly the
// primary's records, and the mirror's physical tail is its last LSN.
func TestShipMirrorReplaysLikePrimary(t *testing.T) {
	if *shipSeed >= 0 {
		shipOneSeed(t, *shipSeed)
		return
	}
	for seed := int64(0); seed < shipSeeds; seed++ {
		shipOneSeed(t, seed)
	}
}

func shipOneSeed(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (rerun with -shipseed=%d): "+format, append([]any{seed, seed}, args...)...)
	}
	pst, mst := NewMemStorage(), NewMemStorage()
	primary, err := Open(pst, Options{SegmentSize: 96 + rng.Intn(160)})
	if err != nil {
		fail("open primary: %v", err)
	}
	mirrorOpts := Options{SegmentSize: 96 + rng.Intn(160)}
	mirror, err := Open(mst, mirrorOpts)
	if err != nil {
		fail("open mirror: %v", err)
	}
	cursor := NewShipCursor(pst, 0)
	var scratch []ShippedRecord
	ship := func(gate uint64) {
		recs, err := cursor.Poll(gate, scratch)
		if err != nil {
			fail("poll to %d: %v", gate, err)
		}
		for _, sr := range recs {
			if sr.LSN > gate {
				fail("poll to %d shipped LSN %d", gate, sr.LSN)
			}
			if err := mirror.AppendShipped(sr.LSN, sr.Frame); err != nil {
				fail("append shipped %d: %v", sr.LSN, err)
			}
		}
		scratch = recs[:0]
	}

	tid := uint64(100)
	steps := 20 + rng.Intn(20)
	reopenAt := steps/3 + rng.Intn(steps/3)
	for step := 0; step < steps; step++ {
		batch := make([]Record, 1+rng.Intn(5))
		for i := range batch {
			tid++
			batch[i] = testRecord(tid, rng.Intn(3))
			if rng.Intn(6) == 0 {
				// Retract some earlier transaction (or, harmlessly, none).
				batch[i] = Record{TID: tid - uint64(1+rng.Intn(8)), Kind: KindAbort}
			}
		}
		if rng.Intn(8) == 0 {
			// A transient write failure: the log retracts the whole batch on
			// a fresh segment, leaving a torn frame — and possibly whole
			// orphan frames — behind in the sealed one.
			pst.FailNextWrite(errors.New("injected"))
			if _, err := primary.AppendBatch(batch); err == nil {
				fail("append under a failing write succeeded")
			}
		} else if _, err := primary.AppendBatch(batch); err != nil {
			fail("append: %v", err)
		}
		if rng.Intn(3) > 0 {
			if err := primary.Sync(); err != nil {
				fail("sync primary: %v", err)
			}
		}
		if rng.Intn(2) == 0 {
			durable := primary.DurableLSN()
			ship(durable - uint64(rng.Int63n(int64(durable/4+1))))
			if rng.Intn(2) == 0 {
				if err := mirror.Sync(); err != nil {
					fail("sync mirror: %v", err)
				}
			}
		}
		if step == reopenAt {
			if rng.Intn(2) == 0 {
				if err := mirror.Close(); err != nil {
					fail("close mirror: %v", err)
				}
			} else {
				mst = mst.CrashCopy() // the replica dies: unsynced frames are gone
			}
			if mirror, err = Open(mst, mirrorOpts); err != nil {
				fail("reopen mirror: %v", err)
			}
			cursor = NewShipCursor(pst, mirror.LastLSN())
		}
	}
	// End on a torn tail: everything so far is made durable, then one more
	// record tears and its retraction tears too, which wedges the primary.
	if err := primary.Sync(); err != nil {
		fail("final sync: %v", err)
	}
	pst.FailWrites(errors.New("injected"))
	if _, err := primary.Append(testRecord(tid+1, 2)); err == nil {
		fail("append under failing writes succeeded")
	}
	pst.FailWrites(nil)
	ship(primary.DurableLSN())
	if err := mirror.Close(); err != nil {
		fail("close mirror: %v", err)
	}

	replay := func(st Storage) ([]Record, *Log) {
		l, err := Open(st, Options{})
		if err != nil {
			fail("open for replay: %v", err)
		}
		return collect(t, l), l
	}
	want, _ := replay(pst)
	got, reopened := replay(mst)
	if len(want) == 0 {
		fail("the primary replays nothing; the seed proves nothing")
	}
	if !reflect.DeepEqual(got, want) {
		fail("mirror replays %d records, primary %d:\nmirror  %+v\nprimary %+v", len(got), len(want), got, want)
	}
	tail, err := TailLSN(mst)
	if err != nil || tail != reopened.LastLSN() || tail != primary.DurableLSN() {
		fail("TailLSN(mirror) = (%d, %v), mirror LastLSN %d, primary durable %d", tail, err, reopened.LastLSN(), primary.DurableLSN())
	}
}

// shipAll polls everything durable on src's log and returns the records.
func shipAll(t *testing.T, src *Log, st Storage) []ShippedRecord {
	t.Helper()
	recs, err := NewShipCursor(st, 0).Poll(src.DurableLSN(), nil)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return recs
}

// primaryWith returns a synced log of n one-write records on fresh storage.
func primaryWith(t *testing.T, n int) (*Log, *MemStorage) {
	t.Helper()
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(uint64(10+i), 1)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return l, st
}

// TestShipFrameAtOrBelowWatermarkIsSkipped: the resume overlap. A frame whose
// LSN the mirror already holds is not written a second time.
func TestShipFrameAtOrBelowWatermarkIsSkipped(t *testing.T) {
	primary, pst := primaryWith(t, 3)
	recs := shipAll(t, primary, pst)
	mst := NewMemStorage()
	mirror := Open2(t, mst)
	for _, sr := range append(recs, recs...) { // everything, then everything again
		if err := mirror.AppendShipped(sr.LSN, sr.Frame); err != nil {
			t.Fatalf("AppendShipped %d: %v", sr.LSN, err)
		}
	}
	if err := mirror.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := mirror.Stats(); st.Appends != 3 || mirror.LastLSN() != 3 || mirror.DurableLSN() != 3 {
		t.Fatalf("mirror appended %d records, last %d, durable %d; want 3, 3, 3", st.Appends, mirror.LastLSN(), mirror.DurableLSN())
	}
	want, _ := pst.ReadSegment(0)
	got, _ := mst.ReadSegment(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror segment differs from the primary's:\n%x\n%x", got, want)
	}
}

// TestShipFailedWriteWedgesWithoutAbortRecord: even a transient write failure
// — one AppendBatch would salvage by retracting its batch on a fresh segment —
// wedges a mirror. It must not invent records the primary never wrote.
func TestShipFailedWriteWedgesWithoutAbortRecord(t *testing.T) {
	primary, pst := primaryWith(t, 3)
	recs := shipAll(t, primary, pst)
	mst := NewMemStorage()
	mirror := Open2(t, mst)
	if err := mirror.AppendShipped(recs[0].LSN, recs[0].Frame); err != nil {
		t.Fatalf("AppendShipped: %v", err)
	}
	cause := errors.New("injected")
	mst.FailNextWrite(cause)
	if err := mirror.AppendShipped(recs[1].LSN, recs[1].Frame); !errors.Is(err, cause) {
		t.Fatalf("AppendShipped under a failing write = %v, want the cause", err)
	}
	if err := mirror.AppendShipped(recs[2].LSN, recs[2].Frame); !errors.Is(err, cause) {
		t.Fatalf("AppendShipped on a wedged mirror = %v, want the wedge", err)
	}
	if err := mirror.Sync(); !errors.Is(err, cause) {
		t.Fatalf("Sync on a wedged mirror = %v, want the wedge", err)
	}
	if mirror.LastLSN() != 1 {
		t.Fatalf("wedged mirror LastLSN = %d, want 1", mirror.LastLSN())
	}
	indexes, _ := mst.List()
	if len(indexes) != 1 {
		t.Fatalf("mirror holds segments %v, want the one it was writing", indexes)
	}
	buf, _ := mst.ReadSegment(indexes[0])
	if got, _ := DecodeAll(buf); len(got) != 1 || got[0].LSN != 1 || got[0].Kind != KindCommit {
		t.Fatalf("wedged mirror holds %+v, want only record 1", got)
	}
	// A restart ends the log at its last whole record; shipping resumes there.
	if reopened := Open2(t, mst); reopened.LastLSN() != 1 {
		t.Fatalf("reopened mirror LastLSN = %d, want 1", reopened.LastLSN())
	}
}

// TestShipOpenOverCopiedCheckpointResumesAtLowLSN: a mirror holding a copied
// blob and no segments starts at the blob's low-water mark — frames the blob
// covers are skipped, the first one above it is appended.
func TestShipOpenOverCopiedCheckpointResumesAtLowLSN(t *testing.T) {
	primary, pst := primaryWith(t, 5)
	if err := pst.WriteCheckpoint(1, EncodeCheckpoint(&Checkpoint{Seq: 1, LowLSN: 3, HighLSN: 3})); err != nil {
		t.Fatal(err)
	}
	mst := NewMemStorage()
	if cp, err := CopyLatestCheckpoint(pst, mst, 4); err != nil || cp != nil {
		t.Fatalf("CopyLatestCheckpoint wanting LowLSN >= 4 = (%+v, %v), want nothing", cp, err)
	}
	if seqs, _ := mst.ListCheckpoints(); len(seqs) != 0 {
		t.Fatalf("a refused checkpoint was copied anyway: %v", seqs)
	}
	if cp, err := CopyLatestCheckpoint(pst, mst, 3); err != nil || cp == nil || cp.LowLSN != 3 {
		t.Fatalf("CopyLatestCheckpoint = (%+v, %v), want the blob", cp, err)
	}
	mirror := Open2(t, mst)
	if mirror.LastLSN() != 3 || mirror.DurableLSN() != 3 {
		t.Fatalf("mirror over a blob at LowLSN 3 opens at last %d, durable %d", mirror.LastLSN(), mirror.DurableLSN())
	}
	for _, sr := range shipAll(t, primary, pst) {
		if err := mirror.AppendShipped(sr.LSN, sr.Frame); err != nil {
			t.Fatalf("AppendShipped %d: %v", sr.LSN, err)
		}
	}
	if err := mirror.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := collect(t, Open2(t, mst))
	if len(got) != 2 || got[0].LSN != 4 || got[1].LSN != 5 {
		t.Fatalf("mirror holds %+v, want records 4 and 5", got)
	}
}

// TestShipCursorAcrossTruncation: a cursor whose segment is deleted under it
// carries on from the oldest survivor if it had drained that segment, and
// reports ErrShipGap if the durable gate had stopped it inside.
func TestShipCursorAcrossTruncation(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{SegmentSize: 1}) // every record in its own segment
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynced := func(n int) {
		t.Helper()
		appendN(t, l, n)
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	poll := func(c *ShipCursor, durable uint64, want ...uint64) {
		t.Helper()
		recs, err := c.Poll(durable, nil)
		var got []uint64
		for _, sr := range recs {
			got = append(got, sr.LSN)
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Poll(%d) = (%v, %v), want %v", durable, got, err, want)
		}
	}
	appendSynced(1)
	drained := NewShipCursor(st, 0)
	poll(drained, 1, 1) // at the end of segment 0, the only one there is
	appendSynced(3)
	stopped := NewShipCursor(st, 0)
	poll(stopped, 1, 1) // moved on to segment 1 and was refused record 2

	if n, err := l.TruncateBelow(1); err != nil || n != 1 {
		t.Fatalf("TruncateBelow(1) deleted (%d, %v), want segment 0", n, err)
	}
	poll(drained, 4, 2, 3, 4)
	poll(NewShipCursor(st, 0), 4, 2, 3, 4)
	if n, err := l.TruncateBelow(2); err != nil || n != 1 {
		t.Fatalf("TruncateBelow(2) deleted (%d, %v), want segment 1", n, err)
	}
	if _, err := stopped.Poll(4, nil); !errors.Is(err, ErrShipGap) {
		t.Fatalf("cursor stopped inside a truncated segment = %v, want ErrShipGap", err)
	}
}

// TestShipSteadyStateAllocs pins what one steady-state ship round allocates:
// the primary appends and syncs one deposit-sized record, Poll ships it, the
// mirror takes it with AppendShipped and syncs. The replica runs inside the
// benchmark process, so this is part of repl-mixed's allocs_per_op, whose
// bound (5 % of ~46) is the gate closest to this code. The number was measured
// at the parent commit first, with MirrorWriter.Append in AppendShipped's
// place: 15. MemStorage accounts for 8 of them (List 6, ReadSegment 2),
// decodeRecord for 3 (the Writes slice, the key, the row image) and the
// primary's Append for 4; the frame iterator, the cursor and the mirror log add
// none.
func TestShipSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rounds = 200
	pst, mst := NewMemStorage(), NewMemStorage()
	primary := Open2(t, pst)
	deposit := Record{TID: 100, Writes: []Write{{Key: "cust-000042\x00checking\x00\x00\x00\x00\x00\x00\x00\x00\x2a", Data: make([]byte, 24)}}}
	mirror := Open2(t, mst)
	cursor := NewShipCursor(pst, 0)
	scratch := make([]ShippedRecord, 0, 4)
	round := func() {
		deposit.TID++
		durable, err := primary.Append(deposit)
		if err == nil {
			err = primary.Sync()
		}
		if err != nil {
			t.Fatalf("primary: %v", err)
		}
		recs, err := cursor.Poll(durable, scratch)
		if err != nil || len(recs) != 1 {
			t.Fatalf("Poll(%d) = (%d records, %v), want 1", durable, len(recs), err)
		}
		if err := mirror.AppendShipped(recs[0].LSN, recs[0].Frame); err != nil {
			t.Fatalf("AppendShipped: %v", err)
		}
		if err := mirror.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		scratch = recs[:0]
	}
	round() // warm: creates both active segments
	if got := testing.AllocsPerRun(rounds, round); got != 15 {
		t.Fatalf("one ship round allocates %.2f, want 15", got)
	}
}
