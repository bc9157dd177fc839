package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"reactdb/internal/core"
	"reactdb/internal/rel"
)

// The wire codec decodes bytes from whoever can reach the port, on the server,
// and from whatever answers a dial, on the client. Each fuzz target holds its
// decoder to three properties: it never panics; it never allocates more than a
// small multiple of its input (a count costs nothing until the elements it
// promises have arrived); and what it accepts survives encode and decode
// unchanged.

// boundedAlloc runs decode and fails the test if it allocated more than
// 128 bytes per input byte plus a megabyte. The worst honest ratio is a list
// of zero-length strings or nils, 16 bytes of header each per byte of input,
// doubled by append's growth; the constant covers maxPrealloc reservations
// down a maxValueDepth-deep nest and a frame reader's buffer. TotalAlloc is
// the process's, and the fuzzing engine allocates beside the target, so an
// excess must repeat to count: decoding is deterministic, the engine is not.
func boundedAlloc(t *testing.T, input []byte, decode func()) {
	t.Helper()
	limit := uint64(128*len(input) + 1<<20)
	var got uint64
	for attempt := 0; attempt < 5; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	t.Fatalf("decoding %d bytes allocated %d, limit %d", len(input), got, limit)
}

// body strips the 9-byte header off a frame an encoder produced.
func body(frame []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return frame[frameHeaderSize:]
}

const frameHeaderSize = 9

func FuzzReadFrame(f *testing.F) {
	stats := appendIDFrame(nil, frameStats, 9)
	exec, _ := goldenExecute().appendFrame(nil)
	big, _ := endFrame(append(beginFrame(nil, frameExecute), make([]byte, ioBufSize+100)...), 0)
	for _, stream := range [][]byte{stats, exec, append(append(stats[:len(stats):len(stats)], exec...), stats...), big, append(big[:len(big):len(big)], stats...)} {
		f.Add(stream)
		f.Add(stream[:len(stream)-1])
		flipped := append([]byte(nil), stream...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 3}) // absurd length
	f.Add([]byte{0, 0, 0xff, 0, 0, 0, 0, 0, 3})          // 16 MiB promised, one byte sent
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                // zero length

	// readAll re-frames every frame the reader returns; on a healthy reader
	// that reproduces the stream's prefix up to the first bad byte.
	readAll := func(r io.Reader) (reframed []byte, err error) {
		fr := newFrameReader(r)
		for {
			typ, body, err := fr.next()
			if err != nil {
				return reframed, err
			}
			start := len(reframed)
			if reframed, err = endFrame(append(beginFrame(reframed, typ), body...), start); err != nil {
				return reframed, err
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []byte
		var err error
		boundedAlloc(t, data, func() { got, err = readAll(bytes.NewReader(data)) })
		if !bytes.HasPrefix(data, got) {
			t.Fatalf("frames returned are not the stream's prefix")
		}
		switch {
		case err == io.EOF:
			if len(got) != len(data) {
				t.Fatalf("clean EOF after %d of %d bytes", len(got), len(data))
			}
		case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, errCorruptFrame):
		default:
			t.Fatalf("unexpected error %v", err)
		}
		// The same stream delivered a byte at a time yields the same frames:
		// nothing depends on how the socket chops it up.
		slow, slowErr := readAll(iotest.OneByteReader(bytes.NewReader(data)))
		if !bytes.Equal(slow, got) || !errors.Is(slowErr, err) {
			t.Fatalf("byte-at-a-time read differs: %d bytes, %v; want %d bytes, %v", len(slow), slowErr, len(got), err)
		}
	})
}

func FuzzDecodeExecuteReq(f *testing.F) {
	f.Add(body(goldenExecute().appendFrame(nil)))
	f.Add(body((&executeReq{ID: 1, Reactor: "r", Procedure: "p"}).appendFrame(nil)))
	f.Add(crashExecuteBody)
	f.Add(append([]byte{1, 0, 1, 'r', 1, 'p'}, hugeCount...))
	f.Add(append([]byte{1, 0, 1, 'r', 1, 'p', 1}, bytes.Repeat([]byte{valList, 1}, 40)...))
	def := core.NewDatabaseDef()

	f.Fuzz(func(t *testing.T, data []byte) {
		var q executeReq
		var err error
		boundedAlloc(t, data, func() { err = q.decode(data, def) })
		if err != nil {
			if !errors.Is(err, errCorruptFrame) {
				t.Fatalf("decode error is not errCorruptFrame: %v", err)
			}
			return
		}
		// Compared through the encoding, which is canonical: a NaN argument
		// is not DeepEqual to itself.
		enc := body(q.appendFrame(nil))
		var q2 executeReq
		if err := q2.decode(enc, def); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if enc2 := body(q2.appendFrame(nil)); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip mismatch:\n got  %x\n want %x", enc2, enc)
		}
	})
}

func FuzzDecodeQueryReq(f *testing.F) {
	f.Add(body((&queryReq{ID: 8, MaxLagRecords: 16, Query: goldenQuery()}).appendFrame(nil)))
	f.Add(body((&queryReq{ID: 1, Query: rel.NewQuery().From("s", "store", "kv0").Avg("s.v", "a").Min("s.v", "lo").Max("s.v", "hi")}).appendFrame(nil)))
	f.Add(append([]byte{1, 0}, hugeCount...))
	f.Add(append([]byte{1, 0, 1, 1, 'a', 1, 't'}, hugeCount...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var q queryReq
		var err error
		boundedAlloc(t, data, func() { err = q.decode(data) })
		if err != nil {
			if !errors.Is(err, errCorruptFrame) {
				t.Fatalf("decode error is not errCorruptFrame: %v", err)
			}
			return
		}
		if q.Query.Err() != nil {
			return // decodes, but the builder refused it; the engine will too
		}
		enc := body(q.appendFrame(nil))
		var q2 queryReq
		if err := q2.decode(enc); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if enc2 := body(q2.appendFrame(nil)); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip mismatch:\n got  %x\n want %x", enc2, enc)
		}
	})
}

func FuzzDecodeResultMsg(f *testing.F) {
	f.Add(body((&resultMsg{ID: 7, Status: statusOK, Kind: payloadValue, Value: 2e9}).appendFrame(nil)))
	f.Add(body((&resultMsg{ID: 8, Status: statusOK, Kind: payloadQuery, Result: &rel.Result{
		Columns: []string{"k", "v"}, Rows: []rel.Row{{int64(1), "a"}, {int64(2), "b"}},
		JoinOrder: []string{"s"}, AccessPaths: map[string]string{"s": "scan", "t": "pk"}}}).appendFrame(nil)))
	f.Add(body((&resultMsg{ID: 9, Status: statusOK, Kind: payloadStatus, Node: goldenStatus}).appendFrame(nil)))
	f.Add(body((&resultMsg{ID: 10, Status: statusConflict, ErrMsg: "conflict"}).appendFrame(nil)))
	f.Add(append([]byte{1, statusOK, 0, payloadStatus, 0, 0, 0, 0}, hugeCount...))
	f.Add(append([]byte{1, statusOK, 0, payloadQuery}, hugeCount...))

	// encode leaves AccessPaths out: a map's encoding order is random, so it
	// is compared by value instead. The rest goes through the encoding,
	// because a NaN payload is not DeepEqual to itself.
	encode := func(m resultMsg) ([]byte, map[string]string) {
		var paths map[string]string
		if m.Result != nil {
			res := *m.Result
			paths, res.AccessPaths = res.AccessPaths, nil
			m.Result = &res
		}
		return body(m.appendFrame(nil)), paths
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m resultMsg
		var err error
		boundedAlloc(t, data, func() { m, err = decodeResultBody(data) })
		if err != nil {
			if !errors.Is(err, errCorruptFrame) {
				t.Fatalf("decode error is not errCorruptFrame: %v", err)
			}
			return
		}
		full := body(m.appendFrame(nil))
		m2, err := decodeResultBody(full)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		enc, paths := encode(m)
		enc2, paths2 := encode(m2)
		if !bytes.Equal(enc, enc2) || !reflect.DeepEqual(paths, paths2) {
			t.Fatalf("round trip mismatch:\n got  %x %v\n want %x %v", enc2, paths2, enc, paths)
		}
	})
}
